"""First-order jet fields over finite sample sets.

The scalar "functions" of this package are first-order jets: a value
together with its gradient in the chart coordinates of the region the
field lives on.  Multiplication carries the gradient along by the
product rule, so the derivation ``d_field`` satisfies the Leibniz
identity by construction; the only deviation ever observed is
floating-point rounding.

Matrices of jets are stored as a value array of shape (rows, cols) plus
a gradient array of shape (dim, rows, cols).

Only the jet fields, ``ScalarField`` and ``MatrixField``, keep one
object per sample point, but their operations are batched: ``stack_values``
and ``stack_grads`` gather the per-point arrays into (P, ...) stacks, one
numpy call computes the products, inverses or residuals of all points,
and the per-point results are built from the slices through the same
validating ``Jet`` and ``JetMatrix`` constructors.  Each point's
arithmetic is the one-point computation, so the numbers equal those of
``JetMatrix.matmul`` and ``JetMatrix.inv`` bit for bit
(``tests/test_batched.py`` holds them to it).  A check that fails
reports the first failing point in the order the operation documents.

The form fields (``OneForm``, ``MatrixOneForm``,
``groups.LieValuedOneForm``) are stacked: one read-only float64 array
``coeffs`` of shape (P, dim, ...) holds the coefficients of every point
in ``point_order``, checked once per form.  Form kernels read ``coeffs``
and build their results from a stack.  The module action of a jet
on a one-form uses the jet's value.

All field objects are immutable: no attribute can be set or deleted,
operations return new fields, and the backing arrays are read-only.  A
non-finite entry raises ``NonFiniteError``, also a ``ValueError``.
Reductions over sample points run in sorted point order so results do
not depend on dict insertion history.

A ``Jet`` stores its value as a float and its gradient as a tuple of
Python floats, ``grad_tuple``.  Its operators read and build these
tuples directly: IEEE arithmetic gives the bits numpy would, an overflow
becomes inf without numpy's RuntimeWarning, and the constructor rejects
it.  Nothing on the hot path (expression nodes, the scalar field
algebra, chart transport) treats a single jet's gradient as an array,
so ``Jet.gradient``, the read-only float64 array of the same numbers, is
built only when someone reads it; the first read caches it, and later
reads return the same object.  Code that stacks jet gradients over
points stacks the tuples.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NonFiniteError,
    SingularMatrixError,
)
from .report import worst

DET_FLOOR = 1e-9


def point_order(points) -> list:
    """Deterministic ordering of point ids (sorted by string form)."""
    return sorted(points, key=str)


def _all_finite(a: np.ndarray) -> bool:
    """True when no entry of ``a`` is NaN, +inf or -inf; true when empty.

    Plain Python: on a one- to four-entry array this costs a fraction of
    two ufunc calls."""
    return all(map(math.isfinite, a.ravel().tolist()))


class Jet:
    """Value and first derivative of a scalar at one sample point.

    The gradient is held as a tuple of Python floats (``grad_tuple``);
    ``gradient`` is the same numbers as a read-only float64 array, built
    on first access and cached.
    """

    __slots__ = ("value", "grad_tuple", "_gradient")

    def __init__(self, value: float, gradient):
        g = None
        if isinstance(gradient, (tuple, list)):
            try:
                g = tuple(map(float, gradient))
            except (TypeError, ValueError, OverflowError):
                pass  # nested or non-numeric: numpy says what is wrong
        if g is None:
            a = np.array(gradient, dtype=float, ndmin=1)
            g = tuple(a.tolist()) if a.ndim == 1 else ()  # () is rejected next
        if not g:
            raise DimensionMismatchError("jet gradient must be a nonempty vector")
        v = float(value)
        if not (math.isfinite(v) and all(map(math.isfinite, g))):
            raise NonFiniteError("jet components must be finite")
        _set_jet_value(self, v)
        _set_jet_grad_tuple(self, g)
        _set_jet_gradient(self, None)

    def __setattr__(self, name, value=None):
        raise AttributeError("Jet is immutable")

    __delattr__ = __setattr__

    @property
    def gradient(self) -> np.ndarray:
        a = self._gradient
        if a is None:
            a = np.array(self.grad_tuple)
            a.setflags(write=False)
            _set_jet_gradient(self, a)
        return a

    @property
    def dim(self) -> int:
        return len(self.grad_tuple)

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if len(other.grad_tuple) != len(self.grad_tuple):
                raise DimensionMismatchError(
                    f"jet dims differ: {self.dim} vs {other.dim}")
            return other
        return Jet(float(other), (0.0,) * len(self.grad_tuple))

    def _scaled(self, value: float, c: float) -> "Jet":
        """The jet (value, c * gradient)."""
        return Jet(value, [c * x for x in self.grad_tuple])

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.value + o.value,
                   [x + y for x, y in zip(self.grad_tuple, o.grad_tuple)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet(self.value - o.value,
                   [x - y for x, y in zip(self.grad_tuple, o.grad_tuple)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Jet(-self.value, [-x for x in self.grad_tuple])

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        c = float(other)
        return self._scaled(self.value * c, c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0.0:
            raise ZeroDivisionError("jet division by zero value")
        a, b = self.value, o.value
        v = a / b
        q = b ** 2
        if q == 0.0:
            # every gradient entry would be x / 0: infinite or NaN
            raise NonFiniteError("jet components must be finite")
        return Jet(v, [(x * b - a * y) / q
                       for x, y in zip(self.grad_tuple, o.grad_tuple)])

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("jet exponent must be an integer")
        if n == 0:
            return Jet(1.0, (0.0,) * len(self.grad_tuple))
        if self.value == 0.0 and n < 0:
            raise ZeroDivisionError("zero jet raised to a negative power")
        return self._scaled(self.value ** n, n * (self.value ** (n - 1)))

    def sin(self):
        return self._scaled(math.sin(self.value), math.cos(self.value))

    def cos(self):
        return self._scaled(math.cos(self.value), -math.sin(self.value))

    def exp(self):
        e = math.exp(self.value)
        return self._scaled(e, e)

    def max_abs_diff(self, other: "Jet") -> float:
        o = self._coerce(other)
        return max(abs(self.value - o.value),
                   max(abs(x - y) for x, y in zip(self.grad_tuple, o.grad_tuple)))

    def __repr__(self):
        return f"Jet({self.value!r}, {list(self.grad_tuple)!r})"


# The slots' own setters: cheaper than object.__setattr__ and past the
# classes' __setattr__, which refuses every assignment.
_set_jet_value = Jet.value.__set__
_set_jet_grad_tuple = Jet.grad_tuple.__set__
_set_jet_gradient = Jet._gradient.__set__


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Leibniz product: d(ab) = a db + b da, carried in the gradient slot."""
    if len(a.grad_tuple) != len(b.grad_tuple):
        raise DimensionMismatchError(f"jet dims differ: {a.dim} vs {b.dim}")
    u, v = a.value, b.value
    return Jet(u * v, [u * y + v * x for x, y in zip(a.grad_tuple, b.grad_tuple)])


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
            raise NonFiniteError("JetMatrix components must be finite")
        v.setflags(write=False)
        g.setflags(write=False)
        _set_matrix_value(self, v)
        _set_matrix_grad(self, g)

    def __setattr__(self, name, value=None):
        raise AttributeError("JetMatrix is immutable")

    __delattr__ = __setattr__

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
        dim = len(grid[0][0].grad_tuple)
        v = np.array([[j.value for j in r] for r in grid])
        if any(len(j.grad_tuple) != dim for r in grid for j in r):
            raise DimensionMismatchError("mixed jet dims in one matrix")
        g = np.array([[j.grad_tuple for j in r] for r in grid])
        return cls(v, g.transpose(2, 0, 1))

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
        return Jet(self.value[i, j], self.grad[:, i, j].tolist())

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
            g = (np.array(s.grad_tuple)[:, None, None] * self.value[None, :, :]
                 + s.value * self.grad)
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


_set_matrix_value = JetMatrix.value.__set__
_set_matrix_grad = JetMatrix.grad.__set__


class _FieldBase:
    """Shared plumbing: a region label plus a per-point ``data`` mapping."""

    __slots__ = ("region", "data")

    def __init__(self, region: str, data: Mapping):
        object.__setattr__(self, "region", str(region))
        object.__setattr__(self, "data", dict(data))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    @property
    def points(self) -> frozenset:
        return frozenset(self.data)

    def ordered_points(self) -> list:
        return point_order(self.data)

    def restrict(self, points) -> "_FieldBase":
        pts = set(points)
        missing = pts - self.points
        if missing:
            raise FieldMismatchError(
                f"restriction outside field domain: {point_order(missing)[:4]}")
        return self._restricted(pts)

    def _restricted(self, pts: set) -> "_FieldBase":
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


class _FormField(_FieldBase):
    """A form field: the coefficients of every point in one read-only
    float64 stack ``coeffs`` of shape (P, dim, *tail), rows in
    ``point_order``, checked once per form.  ``data`` maps each point to
    its row, a view of the stack.  Each kind sets ``KIND``, ``NDIM`` (the
    axes of one row) and its messages.
    """

    __slots__ = ("coeffs",)

    @classmethod
    def from_stack(cls, region: str, points, coeffs) -> "_FormField":
        """The form holding row i of ``coeffs`` at ``points[i]``; the points
        must be distinct and in ``point_order``."""
        points = list(points)
        keys = [str(p) for p in points]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise FieldMismatchError(f"{cls.KIND} points must be distinct and in point_order")
        return object.__new__(cls)._checked(region, points, coeffs, None)

    def _from_mapping(self, region: str, data: Mapping, tail=None, ndmin=0) -> "_FormField":
        data = dict(data)
        order = point_order(data)
        rows = [np.array(data[p], dtype=float, ndmin=ndmin) for p in order]
        if len({r.shape for r in rows}) > 1:
            for p, r in zip(order, rows):
                self._check_row(p, r.shape, tail)
            raise DimensionMismatchError(self.MIXED_MESSAGE)
        return self._checked(region, order, rows or np.zeros(
            (0, 0) + (tail or (0,) * (self.NDIM - 1))), tail)

    def _checked(self, region: str, order, coeffs, tail) -> "_FormField":
        c = np.array(coeffs, dtype=float, order="C")
        self._check_row(order[0] if len(order) else None, c.shape[1:], tail)
        if len(c) != len(order):
            raise FieldMismatchError(f"{len(order)} points for {len(c)} {self.KIND} rows")
        if not np.isfinite(c).all():
            raise NonFiniteError(f"{self.KIND} coefficients must be finite")
        return self._set(region, order, c)

    def _set(self, region: str, order, coeffs: np.ndarray) -> "_FormField":
        coeffs.setflags(write=False)
        object.__setattr__(self, "region", str(region))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "data", MappingProxyType(dict(zip(order, coeffs))))
        return self

    def _check_row(self, p, shape: tuple, tail) -> None:
        if len(shape) != self.NDIM or (tail is not None and shape[1:] != tail):
            raise DimensionMismatchError(self.SHAPE_MESSAGE)

    def ordered_points(self) -> list:
        return list(self.data)

    @property
    def dim(self):
        return self.coeffs.shape[1] if self.data else None

    def _like(self, region: str, coeffs) -> "_FormField":
        """A form of this kind on the same points holding ``coeffs``."""
        return object.__new__(type(self))._checked(
            region, list(self.data), coeffs, self.coeffs.shape[2:])

    def _restricted(self, pts: set) -> "_FormField":
        keep = [i for i, p in enumerate(self.data) if p in pts]
        return object.__new__(type(self))._set(
            self.region, [p for p in self.data if p in pts], self.coeffs[keep])

    def relabel(self, region: str) -> "_FormField":
        return object.__new__(type(self))._set(region, self.data, self.coeffs)

    def _replace(self, region, data):
        return object.__new__(type(self))._from_mapping(region, data, self.coeffs.shape[2:])


class OneForm(_FormField):
    """Differential one-form: per point, real coefficients on the chart basis."""

    KIND, NDIM = "one-form", 1
    SHAPE_MESSAGE = "one-form coefficients must be vectors"
    MIXED_MESSAGE = "mixed coefficient lengths in one-form"

    def __init__(self, region: str, data: Mapping):
        self._from_mapping(region, data, ndmin=1)


class MatrixOneForm(_FormField):
    """Matrix-valued one-form: per point an array of shape (dim, rows, cols)."""

    KIND, NDIM = "matrix one-form", 3
    MIXED_MESSAGE = "mixed chart dimensions in matrix one-form"

    def __init__(self, region: str, rows: int, cols: int, data: Mapping):
        self._from_mapping(region, data, (int(rows), int(cols)))

    @property
    def rows(self) -> int:
        return self.coeffs.shape[2]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[3]

    def _check_row(self, p, shape: tuple, tail) -> None:
        if len(shape) != 3 or (tail is not None and shape[1:] != tail):
            rows, cols = tail or ("rows", "cols")
            raise FieldMismatchError(f"matrix one-form entry at {p} has shape {shape}, "
                                     f"expected (dim, {rows}, {cols})")


def _require_aligned(a: _FieldBase, b: _FieldBase) -> None:
    if a.region != b.region:
        raise FieldMismatchError(f"regions differ: {a.region!r} vs {b.region!r}")
    if a.points != b.points:
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
    pts = f.ordered_points()
    grads = np.array([f.data[p].grad_tuple for p in pts]).reshape(len(pts), f.dim or 0)
    return OneForm.from_stack(f.region, pts, grads)


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
    pts = a.ordered_points()
    return MatrixOneForm.from_stack(a.region, pts, stack_grads(a, pts))


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
    sg = np.array([s.data[p].grad_tuple for p in pts]).reshape(-1, g.shape[1], 1, 1)
    return MatrixField(a.region, a.rows, a.cols,
                       matrix_data(pts, sv * v, sg * v[:, None] + sv[:, None] * g))


def identity_matrix_field(region: str, points, n: int, dim: int) -> MatrixField:
    eye = JetMatrix.identity(n, dim)
    return MatrixField(region, n, n, {p: eye for p in points})


def constant_matrix_field(region: str, points, matrix, dim: int) -> MatrixField:
    m = JetMatrix.constant(matrix, dim)
    return MatrixField(region, m.rows, m.cols, {p: m for p in points})


# -- residuals --------------------------------------------------------------

def max_diff(a, b) -> float:
    """Largest entrywise deviation between two arrays; 0.0 when empty."""
    return float(np.max(np.abs(np.subtract(a, b)), initial=0.0))


def max_diff_rows(a, b) -> list[float]:
    """``max_diff`` of each pair of rows of two stacks (leading axis)."""
    d = np.abs(np.subtract(a, b))
    return np.max(d, axis=tuple(range(1, d.ndim)), initial=0.0).tolist()


def form_diff_rows(a: _FormField, b: _FormField, points) -> list[float]:
    """Per point, ``max_diff`` of the rows two form fields hold there;
    ``points`` are the forms' common ``ordered_points()``."""
    if not list(points) == list(a.data) == list(b.data):
        raise FieldMismatchError("form rows are compared on the forms' common points")
    return max_diff_rows(a.coeffs, b.coeffs)


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
    if a.points != b.points:
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
            max_diff_rows([j.grad_tuple for j in ja], [j.grad_tuple for j in jb])).tolist()
    else:
        rows = form_diff_rows(a, b, pts)
    r = worst("field", 0.0, zip(pts, rows))
    return r.residual, r.worst_point
