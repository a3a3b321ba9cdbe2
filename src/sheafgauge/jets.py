"""First-order jet fields over finite sample sets.

The scalar "functions" of this package are first-order jets: a value
together with its gradient in the chart coordinates of the region the
field lives on.  Multiplication carries the gradient along by the
product rule, so the derivation ``d_field`` satisfies the Leibniz
identity by construction; the only deviation ever observed is
floating-point rounding.

One-forms are plain coefficient arrays per point (the module action of
a jet on a one-form uses the jet's value).  Matrices of jets are stored
as a value array of shape (rows, cols) plus a gradient array of shape
(dim, rows, cols).

Fields keep one object per sample point, but their operations are
batched over the points: ``stack_values`` and ``stack_grads`` gather the
per-point arrays into (P, ...) stacks, one numpy call computes the
products, inverses or residuals of all points at once, and the
per-point results are then built from the slices through the same
validating ``Jet`` and ``JetMatrix`` constructors, as many as a loop
over the points would build.  Each point's arithmetic is the one-point
computation, so the numbers equal those of ``JetMatrix.matmul`` and
``JetMatrix.inv`` bit for bit (``tests/test_batched.py`` holds them to
it).  A check that fails reports the first failing point in the order
the operation documents.

All field objects are immutable by convention: operations return new
fields, and the backing numpy arrays are marked read-only.  Reductions
over sample points run in sorted point order so results do not depend
on dict insertion history.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    SingularMatrixError,
)
from .report import worst

DET_FLOOR = 1e-9


def point_order(points) -> list:
    """Deterministic ordering of point ids (sorted by string form)."""
    return sorted(points, key=str)


def _all_finite(a: np.ndarray) -> bool:
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


class Jet:
    """Value and first derivative of a scalar at one sample point."""

    __slots__ = ("value", "gradient")

    def __init__(self, value: float, gradient):
        g = np.array(gradient, dtype=float, ndmin=1)
        if g.ndim != 1 or g.size < 1:
            raise DimensionMismatchError("jet gradient must be a nonempty vector")
        v = float(value)
        if not (math.isfinite(v) and _all_finite(g)):
            raise ValueError("jet components must be finite")
        g.flags.writeable = False
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "gradient", g)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @property
    def dim(self) -> int:
        return self.gradient.size

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.dim != self.dim:
                raise DimensionMismatchError(
                    f"jet dims differ: {self.dim} vs {other.dim}")
            return other
        return Jet(float(other), np.zeros(self.dim))

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.value + o.value, self.gradient + o.gradient)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet(self.value - o.value, self.gradient - o.gradient)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Jet(-self.value, -self.gradient)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return Jet(self.value * float(other), self.gradient * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0.0:
            raise ZeroDivisionError("jet division by zero value")
        v = self.value / o.value
        g = (self.gradient * o.value - self.value * o.gradient) / (o.value ** 2)
        return Jet(v, g)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("jet exponent must be an integer")
        if n == 0:
            return Jet(1.0, np.zeros(self.dim))
        if self.value == 0.0 and n < 0:
            raise ZeroDivisionError("zero jet raised to a negative power")
        v = self.value ** n
        g = n * (self.value ** (n - 1)) * self.gradient
        return Jet(v, g)

    def sin(self):
        return Jet(math.sin(self.value), math.cos(self.value) * self.gradient)

    def cos(self):
        return Jet(math.cos(self.value), -math.sin(self.value) * self.gradient)

    def exp(self):
        e = math.exp(self.value)
        return Jet(e, e * self.gradient)

    def max_abs_diff(self, other: "Jet") -> float:
        o = self._coerce(other)
        return max(abs(self.value - o.value),
                   float(np.max(np.abs(self.gradient - o.gradient))))

    def __repr__(self):
        return f"Jet({self.value!r}, {self.gradient.tolist()!r})"


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Leibniz product: d(ab) = a db + b da, carried in the gradient slot."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"jet dims differ: {a.dim} vs {b.dim}")
    return Jet(a.value * b.value, a.value * b.gradient + b.value * a.gradient)


class JetMatrix:
    """A matrix of jets at one point: value (r, c) and gradient (dim, r, c)."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        v = np.array(value, dtype=float)
        g = np.array(grad, dtype=float)
        if v.ndim != 2:
            raise DimensionMismatchError("JetMatrix value must be 2-d")
        if g.ndim != 3 or g.shape[1:] != v.shape:
            raise DimensionMismatchError(
                f"JetMatrix gradient shape {g.shape} does not extend value shape {v.shape}")
        if g.shape[0] < 1:
            raise DimensionMismatchError("JetMatrix needs at least one chart direction")
        if not (_all_finite(v) and _all_finite(g)):
            raise ValueError("JetMatrix components must be finite")
        v.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "grad", g)

    def __setattr__(self, name, value):
        raise AttributeError("JetMatrix is immutable")

    @classmethod
    def constant(cls, matrix, dim: int) -> "JetMatrix":
        v = np.asarray(matrix, dtype=float)
        return cls(v, np.zeros((dim,) + v.shape))

    @classmethod
    def identity(cls, n: int, dim: int) -> "JetMatrix":
        return cls.constant(np.eye(n), dim)

    @classmethod
    def from_jets(cls, rows: Iterable[Iterable[Jet]]) -> "JetMatrix":
        grid = [list(r) for r in rows]
        dim = grid[0][0].dim
        v = np.array([[j.value for j in r] for r in grid])
        g = np.empty((dim, len(grid), len(grid[0])))
        for i, r in enumerate(grid):
            for j, jet in enumerate(r):
                if jet.dim != dim:
                    raise DimensionMismatchError("mixed jet dims in one matrix")
                g[:, i, j] = jet.gradient
        return cls(v, g)

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    def entry(self, i: int, j: int) -> Jet:
        return Jet(self.value[i, j], self.grad[:, i, j])

    def matmul(self, other: "JetMatrix") -> "JetMatrix":
        if self.cols != other.rows or self.dim != other.dim:
            raise DimensionMismatchError("JetMatrix product shape mismatch")
        v = self.value @ other.value
        g = (np.einsum("kij,jl->kil", self.grad, other.value)
             + np.einsum("ij,kjl->kil", self.value, other.grad))
        return JetMatrix(v, g)

    def add(self, other: "JetMatrix") -> "JetMatrix":
        self._same_shape(other)
        return JetMatrix(self.value + other.value, self.grad + other.grad)

    def scale(self, s) -> "JetMatrix":
        """Multiply by a scalar jet (Leibniz) or a plain number."""
        if isinstance(s, Jet):
            if s.dim != self.dim:
                raise DimensionMismatchError("scalar jet dim mismatch")
            v = s.value * self.value
            g = s.gradient[:, None, None] * self.value[None, :, :] + s.value * self.grad
            return JetMatrix(v, g)
        return JetMatrix(float(s) * self.value, float(s) * self.grad)

    def inv(self, det_floor: float = DET_FLOOR, point=None) -> "JetMatrix":
        if self.rows != self.cols:
            raise DimensionMismatchError("only square matrices invert")
        det = float(np.linalg.det(self.value))
        if abs(det) < det_floor:
            raise SingularMatrixError(
                f"determinant {det:.3e} below floor {det_floor:.1e}"
                + (f" at point {point}" if point is not None else ""),
                point=point)
        vi = np.linalg.inv(self.value)
        g = -np.einsum("ij,kjl,lm->kim", vi, self.grad, vi)
        return JetMatrix(vi, g)

    def transpose(self) -> "JetMatrix":
        return JetMatrix(self.value.T, np.transpose(self.grad, (0, 2, 1)))

    def max_abs_diff(self, other: "JetMatrix") -> float:
        self._same_shape(other)
        return max(max_diff(self.value, other.value), max_diff(self.grad, other.grad))

    def _same_shape(self, other: "JetMatrix") -> None:
        if self.value.shape != other.value.shape or self.dim != other.dim:
            raise DimensionMismatchError("JetMatrix shape mismatch")

    def __repr__(self):
        return f"JetMatrix(value={self.value.tolist()!r}, dim={self.dim})"


class _FieldBase:
    """Shared plumbing: a region label plus a per-point data dict."""

    __slots__ = ("region", "data")

    def __init__(self, region: str, data: Mapping):
        object.__setattr__(self, "region", str(region))
        object.__setattr__(self, "data", dict(data))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def points(self) -> frozenset:
        return frozenset(self.data)

    def ordered_points(self) -> list:
        return point_order(self.data)

    def restrict(self, points) -> "_FieldBase":
        pts = set(points)
        missing = pts - set(self.data)
        if missing:
            raise FieldMismatchError(
                f"restriction outside field domain: {point_order(missing)[:4]}")
        return self._replace(self.region, {p: self.data[p] for p in pts})

    def relabel(self, region: str) -> "_FieldBase":
        return self._replace(region, self.data)

    def _replace(self, region, data):
        raise NotImplementedError

    def __len__(self):
        return len(self.data)


class ScalarField(_FieldBase):
    """Jet-valued scalar field over the sample points of one region."""

    def __init__(self, region: str, data: Mapping[object, Jet]):
        data = dict(data)
        dims = {j.dim for j in data.values()}
        if len(dims) > 1:
            raise DimensionMismatchError("mixed jet dims in scalar field")
        for p, j in data.items():
            if not isinstance(j, Jet):
                raise TypeError(f"scalar field entry at {p} is not a Jet")
        super().__init__(region, data)

    @property
    def dim(self):
        for j in self.data.values():
            return j.dim
        return None

    def _replace(self, region, data):
        return ScalarField(region, data)


class OneForm(_FieldBase):
    """Differential one-form: per point, real coefficients on the chart basis."""

    def __init__(self, region: str, data: Mapping):
        clean = {}
        dims = set()
        for p, arr in dict(data).items():
            a = np.array(arr, dtype=float, ndmin=1)
            if a.ndim != 1:
                raise DimensionMismatchError("one-form coefficients must be vectors")
            if not _all_finite(a):
                raise ValueError("one-form coefficients must be finite")
            dims.add(a.size)
            a.flags.writeable = False
            clean[p] = a
        if len(dims) > 1:
            raise DimensionMismatchError("mixed coefficient lengths in one-form")
        super().__init__(region, clean)

    @property
    def dim(self):
        for a in self.data.values():
            return a.size
        return None

    def _replace(self, region, data):
        return OneForm(region, data)


class MatrixField(_FieldBase):
    """Matrix-of-jets field.  Column vectors are the cols == 1 case."""

    __slots__ = ("rows", "cols")

    def __init__(self, region: str, rows: int, cols: int, data: Mapping):
        data = dict(data)
        dims = set()
        for p, m in data.items():
            if not isinstance(m, JetMatrix):
                raise TypeError(f"matrix field entry at {p} is not a JetMatrix")
            if m.value.shape != (rows, cols):
                raise FieldMismatchError(
                    f"entry at {p} has shape {m.value.shape}, expected {(rows, cols)}")
            dims.add(m.grad.shape[0])
        if len(dims) > 1:
            raise DimensionMismatchError("mixed jet dims in matrix field")
        object.__setattr__(self, "rows", int(rows))
        object.__setattr__(self, "cols", int(cols))
        super().__init__(region, data)

    @property
    def dim(self):
        for m in self.data.values():
            return m.dim
        return None

    def _replace(self, region, data):
        return MatrixField(region, self.rows, self.cols, data)

    def map_entries(self, fn: Callable[[object, JetMatrix], JetMatrix],
                    rows=None, cols=None) -> "MatrixField":
        out = {p: fn(p, m) for p, m in self.data.items()}
        r = self.rows if rows is None else rows
        c = self.cols if cols is None else cols
        return MatrixField(self.region, r, c, out)


class MatrixOneForm(_FieldBase):
    """Matrix-valued one-form: per point an array of shape (dim, rows, cols)."""

    __slots__ = ("rows", "cols")

    def __init__(self, region: str, rows: int, cols: int, data: Mapping):
        clean = {}
        for p, arr in dict(data).items():
            a = np.array(arr, dtype=float)
            if a.ndim != 3 or a.shape[1:] != (rows, cols):
                raise FieldMismatchError(
                    f"matrix one-form entry at {p} has shape {a.shape}, "
                    f"expected (dim, {rows}, {cols})")
            if not _all_finite(a):
                raise ValueError("matrix one-form coefficients must be finite")
            a.flags.writeable = False
            clean[p] = a
        object.__setattr__(self, "rows", int(rows))
        object.__setattr__(self, "cols", int(cols))
        super().__init__(region, clean)

    @property
    def dim(self):
        for a in self.data.values():
            return a.shape[0]
        return None

    def _replace(self, region, data):
        return MatrixOneForm(region, self.rows, self.cols, data)


def _require_aligned(a: _FieldBase, b: _FieldBase) -> None:
    if a.region != b.region:
        raise FieldMismatchError(f"regions differ: {a.region!r} vs {b.region!r}")
    if set(a.data) != set(b.data):
        raise FieldMismatchError("fields are defined on different point sets")


# -- scalar field algebra ---------------------------------------------------

def field_mul(s: ScalarField, t: ScalarField) -> ScalarField:
    _require_aligned(s, t)
    return ScalarField(s.region, {p: jet_mul(s.data[p], t.data[p]) for p in s.data})


def field_add(s: ScalarField, t: ScalarField) -> ScalarField:
    _require_aligned(s, t)
    return ScalarField(s.region, {p: s.data[p] + t.data[p] for p in s.data})


def d_field(f: ScalarField) -> OneForm:
    """Exterior derivative: reads off each jet's gradient as coefficients."""
    return OneForm(f.region, {p: j.gradient for p, j in f.data.items()})


# -- stacks over sample points ---------------------------------------------

def stack_values(f: MatrixField, points) -> np.ndarray:
    """Values of a matrix field at ``points``, in that order: (P, rows, cols)."""
    return np.array([f.data[p].value for p in points]).reshape(-1, f.rows, f.cols)


def stack_grads(f: MatrixField, points) -> np.ndarray:
    """Gradients at ``points``, in that order: (P, dim, rows, cols).

    An empty stack gets one placeholder chart direction.
    """
    return np.array([f.data[p].grad for p in points]).reshape(
        -1, f.dim or 1, f.rows, f.cols)


def stack_arrays(f: _FieldBase, points, tail: tuple) -> np.ndarray:
    """Per-point arrays of a form field at ``points`` on a new first axis.

    ``tail`` is the per-point shape of an empty stack; a nonempty stack
    takes the shape of its arrays.
    """
    if not points:
        return np.zeros((0,) + tuple(tail))
    return np.array([f.data[p] for p in points], dtype=float)


def matrix_data(points, values, grads) -> dict:
    """Per-point ``JetMatrix`` objects from stacked values and gradients."""
    return {p: JetMatrix(v, g) for p, v, g in zip(points, values, grads)}


def first_true(mask) -> int:
    """Index of the first true entry of a boolean vector, else its length."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else len(mask)


# -- matrix field algebra ---------------------------------------------------

def mat_mul(a: MatrixField, b: MatrixField) -> MatrixField:
    _require_aligned(a, b)
    if a.cols != b.rows:
        raise FieldMismatchError(
            f"matrix shapes {a.rows}x{a.cols} and {b.rows}x{b.cols} do not chain")
    pts = list(a.data)
    if pts and a.dim != b.dim:
        raise DimensionMismatchError("JetMatrix product shape mismatch")
    va, ga = stack_values(a, pts), stack_grads(a, pts)
    vb, gb = stack_values(b, pts), stack_grads(b, pts)
    grad = (np.einsum("pkij,pjl->pkil", ga, vb)
            + np.einsum("pij,pkjl->pkil", va, gb))
    return MatrixField(a.region, a.rows, b.cols, matrix_data(pts, va @ vb, grad))


def mat_add(a: MatrixField, b: MatrixField) -> MatrixField:
    _require_aligned(a, b)
    return MatrixField(a.region, a.rows, a.cols,
                       {p: a.data[p].add(b.data[p]) for p in a.data})


def mat_inv(a: MatrixField, det_floor: float = DET_FLOOR) -> MatrixField:
    """Pointwise inverse; the first point in dict order whose determinant
    lies below ``det_floor`` raises SingularMatrixError."""
    pts = list(a.data)
    if pts and a.rows != a.cols:
        raise DimensionMismatchError("only square matrices invert")
    v, g = stack_values(a, pts), stack_grads(a, pts)
    det = np.linalg.det(v)
    stop = first_true(np.abs(det) < det_floor)
    vi = np.linalg.inv(v[:stop])
    gi = -np.einsum("pij,pkjl,plm->pkim", vi, g[:stop], vi)
    data = matrix_data(pts, vi, gi)
    if stop < len(pts):
        p = pts[stop]
        raise SingularMatrixError(
            f"determinant {float(det[stop]):.3e} below floor {det_floor:.1e} "
            f"at point {p}", point=p)
    return MatrixField(a.region, a.rows, a.cols, data)


def mat_d(a: MatrixField) -> MatrixOneForm:
    """Entrywise derivative of a matrix of jets."""
    return MatrixOneForm(a.region, a.rows, a.cols,
                         {p: m.grad for p, m in a.data.items()})


def mat_transpose(a: MatrixField) -> MatrixField:
    pts = list(a.data)
    v, g = stack_values(a, pts), stack_grads(a, pts)
    return MatrixField(a.region, a.cols, a.rows,
                       matrix_data(pts, v.swapaxes(1, 2), g.swapaxes(2, 3)))


def mat_scale(a: MatrixField, s) -> MatrixField:
    """Scale a matrix field by a scalar field (jetwise) or a number."""
    pts = list(a.data)
    v, g = stack_values(a, pts), stack_grads(a, pts)
    if not isinstance(s, ScalarField):
        f = float(s)
        return MatrixField(a.region, a.rows, a.cols, matrix_data(pts, f * v, f * g))
    _require_aligned(a, s)
    if pts and s.dim != a.dim:
        raise DimensionMismatchError("scalar jet dim mismatch")
    sv = np.array([s.data[p].value for p in pts]).reshape(-1, 1, 1)
    sg = np.array([s.data[p].gradient for p in pts]).reshape(-1, g.shape[1], 1, 1)
    return MatrixField(a.region, a.rows, a.cols,
                       matrix_data(pts, sv * v, sg * v[:, None] + sv[:, None] * g))


def identity_matrix_field(region: str, points, n: int, dim: int) -> MatrixField:
    eye = JetMatrix.identity(n, dim)
    return MatrixField(region, n, n, {p: eye for p in points})


def constant_matrix_field(region: str, points, matrix, dim: int) -> MatrixField:
    m = JetMatrix.constant(matrix, dim)
    return MatrixField(region, m.rows, m.cols, {p: m for p in points})


def coordinate_field(region: str, coords: Mapping, axis: int = 0) -> ScalarField:
    """The axis-th chart coordinate as a jet field (unit gradient seed)."""
    data = {}
    for p, c in coords.items():
        c = np.atleast_1d(np.asarray(c, dtype=float))
        g = np.zeros(c.size)
        g[axis] = 1.0
        data[p] = Jet(c[axis], g)
    return ScalarField(region, data)


# -- residuals --------------------------------------------------------------

def max_diff(a, b) -> float:
    """Largest entrywise deviation between two arrays; 0.0 when empty."""
    return float(np.max(np.abs(np.subtract(a, b)), initial=0.0))


def max_diff_rows(a, b) -> list[float]:
    """``max_diff`` of each pair of rows of two stacks (leading axis)."""
    d = np.abs(np.subtract(a, b))
    return np.max(d, axis=tuple(range(1, d.ndim)), initial=0.0).tolist()


def form_diff_rows(a: _FieldBase, b: _FieldBase, points) -> list[float]:
    """Per point, ``max_diff`` of the arrays two form fields hold there."""
    return max_diff_rows(stack_arrays(a, points, ()), stack_arrays(b, points, ()))


def jet_diff_rows(a: MatrixField, b: MatrixField, points) -> list[float]:
    """Per point, the largest deviation of value and gradient entries."""
    va, ga = stack_values(a, points), stack_grads(a, points)
    vb, gb = stack_values(b, points), stack_grads(b, points)
    if va.shape != vb.shape or ga.shape != gb.shape:
        raise DimensionMismatchError("JetMatrix shape mismatch")
    return np.maximum(max_diff_rows(va, vb), max_diff_rows(ga, gb)).tolist()


def _entry_diff(a, b) -> float:
    if isinstance(a, (Jet, JetMatrix)):
        return a.max_abs_diff(b)
    return max_diff(a, b)


def field_residual(a: _FieldBase, b: _FieldBase) -> tuple[float, object]:
    """Max pointwise deviation between two fields of the same kind.

    Returns (residual, worst point id); (0.0, None) for empty fields.
    Value and gradient parts both count for jet-carrying fields.
    """
    if type(a) is not type(b):
        raise FieldMismatchError(f"cannot compare {type(a).__name__} with {type(b).__name__}")
    if set(a.data) != set(b.data):
        raise FieldMismatchError("fields are defined on different point sets")
    pts = a.ordered_points()
    if not pts:
        return 0.0, None
    if isinstance(a, MatrixField):
        rows = jet_diff_rows(a, b, pts)
    elif isinstance(a, ScalarField):
        if a.dim != b.dim:
            raise DimensionMismatchError(f"jet dims differ: {a.dim} vs {b.dim}")
        ja, jb = [a.data[p] for p in pts], [b.data[p] for p in pts]
        rows = np.maximum(
            max_diff_rows([j.value for j in ja], [j.value for j in jb]),
            max_diff_rows([j.gradient for j in ja], [j.gradient for j in jb])).tolist()
    else:
        rows = form_diff_rows(a, b, pts)
    r = worst("field", 0.0, zip(pts, rows))
    return r.residual, r.worst_point
