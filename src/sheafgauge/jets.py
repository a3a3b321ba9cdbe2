"""First-order jet fields over finite sample sets.

The scalar "functions" of this package are first-order jets: a value
together with its gradient in the chart coordinates of the region the
field lives on.  Multiplication carries the gradient along by the
product rule, so the derivation ``d_field`` satisfies the Leibniz
identity by construction; the only deviation ever observed is
floating-point rounding.

Matrices of jets are stored as a value array of shape (rows, cols) plus
a gradient array of shape (dim, rows, cols).

Every field kind keeps its numbers in one read-only float64 stack
``coeffs``, one row per sample point, checked once per field, with
``data`` a read-only mapping from each point to its entry.  A field is
built from its stack (``from_stack``), so it keeps its row shape even
with no rows.  Rows are in ``point_order`` for every kind; a failure
names the first failing point in ``point_order``.  A
jet-field row holds the value at index 0 and the gradient at ``1:``, so
a ``MatrixField`` stack is (P, 1 + dim, rows, cols) and a
``ScalarField`` stack (P, 1 + dim), and ``data`` holds one ``Jet`` or
``JetMatrix`` per point.  The form fields (``OneForm``,
``MatrixOneForm``, ``groups.LieValuedOneForm``) hold (P, dim, ...), and
``data[p]`` is a view of its row.  Kernels read the stacks, in one numpy
call over all points; a jet-field result builds one object per point
through the validating constructor, except that a restriction, a
relabelling and ``cover.glue`` keep their input's objects, and
``constant_matrix_field`` and the ``gl1_diag_powers`` lift hold their
own.  A ``MatrixField``'s objects share
their rows: each ``JetMatrix`` holds views of its row of the stack, made
read-only before the objects are built, not copies; a ``Jet`` holds a
tuple of floats.  Each point's arithmetic is the
one-point computation, so the numbers equal those of ``JetMatrix.matmul``
and ``JetMatrix.inv`` bit for bit (``tests/test_batched.py`` holds them
to it), with one exception: inverting a field that ``mat_inv`` made
gives back that call's input values exactly, where ``JetMatrix.inv``
would invert the inverse again.  A ``MatrixField`` computes the
determinants and the inverses of its values at most once, on first use,
and keeps them read-only in its own slots; which values have one is
decided there alone (``MatrixField._inverses``), and ``mat_inv``,
``groups.mc``, ``groups.rho_matrix`` and ``groups.group_mul`` read it.  The
field operations are ``d_field`` on scalar fields and
``mat_mul``, ``mat_inv`` and ``mat_scale`` on matrix fields; products of
single jets are ``jet_mul`` and ``JetMatrix.matmul``.  Only the residual
functions pair a point with its residual: ``residuals`` for the rows of
two stacks, ``diff_rows`` for two fields of one kind (in ``point_order``)
and ``field_residual``, the worst of ``diff_rows``' pairs.

All field objects are immutable: no attribute can be set or deleted,
operations return new fields, and the backing arrays and mappings are
read-only.  A non-finite entry raises ``NonFiniteError``, also a
``ValueError``.

A ``Jet`` stores its value as a float and its gradient as a tuple of
Python floats, ``grad_tuple``.  Its operators read and build these
tuples directly: IEEE arithmetic gives the bits numpy would, an overflow
becomes inf without numpy's RuntimeWarning, and the constructor rejects
it.  A gradient that is already a non-empty tuple of exact ``float``
items, as the operators and ``expr.Program`` hand over, is stored as
given; any other gradient (a list, an array, numpy scalars, ints, bools,
float subclasses) is converted item by item, and the value always goes
through ``float``.  The emptiness and finiteness checks run on every
input, so every jet is checked once, at construction.  Every jet a
report builds has one chart direction, so a gradient that is a tuple of
exactly one exact float takes a path of its own: two ``math.isfinite``
calls on the value and the lone entry, and no iterator; any other
gradient takes the general path, with the same errors in the same
order.  Nothing on the hot path (expression nodes, the scalar field
algebra, chart transport) treats a single jet's gradient as an array,
so ``Jet.gradient``, the read-only float64 array of the same numbers, is
built only when someone reads it: the ``_gradient`` slot stays unset
until then, the first read fills it, and later reads return the same
object.  Code that stacks jet gradients over points stacks the tuples.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable

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


_ORDER_MESSAGE = "{cls.KIND} points must be distinct and in point_order"


def _all_finite(a: np.ndarray) -> bool:
    """True when no entry of ``a`` is NaN, +inf or -inf; true when empty.

    Plain Python: on a one- to four-entry array this costs a fraction of
    two ufunc calls."""
    return all(map(math.isfinite, a.ravel().tolist()))


# The item types of a gradient the Jet constructor stores as given.
_FLOAT_ONLY = frozenset((float,))


def _float_tuple(gradient) -> tuple:
    """A jet gradient as a tuple of Python floats; () when it is not a
    vector, which the constructor rejects."""
    if isinstance(gradient, (tuple, list)):
        try:
            return tuple(map(float, gradient))
        except (TypeError, ValueError, OverflowError):
            pass  # nested or non-numeric: numpy says what is wrong
    a = np.array(gradient, dtype=float, ndmin=1)
    return tuple(a.tolist()) if a.ndim == 1 else ()


class Jet:
    """Value and first derivative of a scalar at one sample point.

    The gradient is held as a tuple of Python floats (``grad_tuple``);
    ``gradient`` is the same numbers as a read-only float64 array, built
    on first access and cached in ``_gradient``, which is unset until
    then.  A non-empty tuple of exact floats is kept as given, anything
    else is converted; either way the constructor rejects an empty
    gradient and a non-finite component.  A one-entry tuple of an exact
    float, the one-direction jet every report builds, is checked with
    two ``math.isfinite`` calls and no iterator.
    """

    __slots__ = ("value", "grad_tuple", "_gradient")

    def __init__(self, value: float, gradient):
        g = gradient
        if type(g) is tuple and len(g) == 1 and type(g[0]) is float:
            # one chart direction, as every jet of a report has
            finite = math.isfinite(g[0])
        else:
            if not (type(g) is tuple and g and _FLOAT_ONLY.issuperset(map(type, g))):
                g = _float_tuple(gradient)
            if not g:
                raise DimensionMismatchError("jet gradient must be a nonempty vector")
            finite = all(map(math.isfinite, g))
        v = float(value)
        if not (math.isfinite(v) and finite):
            raise NonFiniteError("jet components must be finite")
        _set_jet_value(self, v)
        _set_jet_grad_tuple(self, g)

    def __setattr__(self, name, value=None):
        raise AttributeError("Jet is immutable")

    __delattr__ = __setattr__

    @property
    def gradient(self) -> np.ndarray:
        try:
            return self._gradient
        except AttributeError:  # unset until the first read
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
        return Jet(value, tuple([c * x for x in self.grad_tuple]))

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.value + o.value,
                   tuple([x + y for x, y in zip(self.grad_tuple, o.grad_tuple)]))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet(self.value - o.value,
                   tuple([x - y for x, y in zip(self.grad_tuple, o.grad_tuple)]))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Jet(-self.value, tuple([-x for x in self.grad_tuple]))

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
        return Jet(v, tuple([(x * b - a * y) / q
                             for x, y in zip(self.grad_tuple, o.grad_tuple)]))

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
    return Jet(u * v, tuple([u * y + v * x for x, y in zip(a.grad_tuple, b.grad_tuple)]))


def _leibniz_matmul(va: np.ndarray, ga: np.ndarray, vb: np.ndarray,
                    gb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and gradient of the product of two matrices of jets, given as
    values (..., r, c) and gradients (..., dim, r, c): one point, or a
    stack of points on the leading axis."""
    return va @ vb, (np.einsum("...kij,...jl->...kil", ga, vb)
                     + np.einsum("...ij,...kjl->...kil", va, gb))


_FLOAT64 = np.dtype(float)


def _held(a) -> np.ndarray:
    """``a`` itself when it is a read-only, C-contiguous float64 view into
    memory that a read-only ndarray owns; otherwise a read-only copy."""
    if type(a) is np.ndarray and a.dtype is _FLOAT64 and type(a.base) is np.ndarray:
        flags, owner = a.flags, a.base.flags
        if owner.owndata and not (owner.writeable or flags.writeable) and flags.c_contiguous:
            return a
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class JetMatrix:
    """A matrix of jets at one point: value (r, c) and gradient (dim, r, c).

    A read-only, C-contiguous float64 view into memory that a read-only
    ndarray owns, such as a row of a ``MatrixField`` stack, is held as
    given: no caller can write through it.  Any other value or gradient
    is copied.  The shape and finiteness checks run on every input."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        v = _held(value)
        g = _held(grad)
        if v.ndim != 2:
            raise DimensionMismatchError("JetMatrix value must be 2-d")
        if g.ndim != 3 or g.shape[1:] != v.shape:
            raise DimensionMismatchError(
                f"JetMatrix gradient shape {g.shape} does not extend value shape {v.shape}")
        if g.shape[0] < 1:
            raise DimensionMismatchError("JetMatrix needs at least one chart direction")
        if not (_all_finite(v) and _all_finite(g)):
            raise NonFiniteError("JetMatrix components must be finite")
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
    def from_jets(cls, rows: Iterable[Iterable[Jet]]) -> "JetMatrix":
        grid = [list(r) for r in rows]
        dim = len(grid[0][0].grad_tuple)
        if any(len(j.grad_tuple) != dim for r in grid for j in r):
            raise DimensionMismatchError("mixed jet dims in one matrix")
        # one (1 + dim, rows, cols) stack, read-only: value and gradient are views
        s = np.array([[(j.value,) + j.grad_tuple for j in r] for r in grid])
        s = s.transpose(2, 0, 1).copy()
        s.setflags(write=False)
        return cls(s[0], s[1:])

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
        return Jet(self.value.item(i, j), tuple(self.grad[:, i, j].tolist()))

    def matmul(self, other: "JetMatrix") -> "JetMatrix":
        if self.cols != other.rows or self.dim != other.dim:
            raise DimensionMismatchError("JetMatrix product shape mismatch")
        return JetMatrix(*_leibniz_matmul(self.value, self.grad, other.value, other.grad))

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

    def inv(self, point=None) -> "JetMatrix":
        if self.rows != self.cols:
            raise DimensionMismatchError("only square matrices invert")
        det = float(determinants(self.value))
        if abs(det) < DET_FLOOR:
            raise SingularMatrixError(
                f"determinant {det:.3e} below floor {DET_FLOOR:.1e}"
                + (f" at point {point}" if point is not None else ""),
                point=point)
        vi = np.linalg.inv(self.value)
        g = -np.einsum("ij,kjl,lm->kim", vi, self.grad, vi)
        return JetMatrix(vi, g)

    def max_abs_diff(self, other: "JetMatrix") -> float:
        if self.value.shape != other.value.shape or self.dim != other.dim:
            raise DimensionMismatchError("JetMatrix shape mismatch")
        return max(max_diff(self.value, other.value), max_diff(self.grad, other.grad))

    def __repr__(self):
        return f"JetMatrix(value={self.value.tolist()!r}, dim={self.dim})"


_set_matrix_value = JetMatrix.value.__set__
_set_matrix_grad = JetMatrix.grad.__set__


class _StackedField:
    """A field over the sample points of one region, held as one stack.

    ``coeffs`` is a read-only float64 array of shape (P, k, *tail), one
    row per point in ``point_order``, checked once per field; ``data`` is
    a read-only mapping from each point to its entry, in the same order.
    The defaults here are the form kinds': a row holds the coefficients
    on the chart basis (k = dim) and ``data[p]`` is a view of its row.
    Each kind sets ``KIND``, ``NDIM`` (the axes of one row) and its
    messages, and ``from_stack`` is its one public constructor.
    """

    __slots__ = ("region", "data", "coeffs")
    LEAD = 0            # slots of a point's row before its chart directions
    MISMATCH_MESSAGE = "{a.KIND} shapes differ"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    @classmethod
    def from_stack(cls, region: str, points, coeffs) -> "_StackedField":
        """The field holding a copy of row i of ``coeffs`` at ``points[i]``;
        the points must be distinct and in ``point_order``."""
        points = list(points)
        cls._check_points(points)
        return object.__new__(cls)._checked(region, points, np.array(coeffs, dtype=float))

    @classmethod
    def _check_points(cls, points: list) -> None:
        keys = [str(p) for p in points]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise FieldMismatchError(_ORDER_MESSAGE.format(cls=cls))

    def _checked(self, region: str, order: list, coeffs, entries=None) -> "_StackedField":
        c = np.asarray(coeffs, dtype=float, order="C")
        self._check_row(c.shape[1:])
        if len(c) != len(order):
            raise FieldMismatchError(f"{len(order)} points for {len(c)} {self.KIND} rows")
        if not np.isfinite(c).all():
            raise NonFiniteError(self.FINITE_MESSAGE)
        return self._set(region, order, c, entries)

    def _set(self, region: str, order, coeffs: np.ndarray, entries=None) -> "_StackedField":
        """Store ``coeffs``, read-only, and map ``order`` to ``entries``, by
        default those ``_entries`` makes of the read-only rows."""
        coeffs.setflags(write=False)
        if entries is None:
            entries = self._entries(coeffs)
        object.__setattr__(self, "region", str(region))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "data", MappingProxyType(dict(zip(order, entries))))
        return self

    def _check_row(self, shape: tuple) -> None:
        if len(shape) != self.NDIM:
            raise DimensionMismatchError(self.SHAPE_MESSAGE)

    @staticmethod
    def _entries(coeffs: np.ndarray):
        return coeffs

    @staticmethod
    def _kept(entries: Iterable):
        """The entries, taken from other fields, that a field on their rows
        keeps; None makes them anew, for a form views of its own stack."""
        return None

    @property
    def points(self) -> frozenset:
        return frozenset(self.data)

    def ordered_points(self) -> list:
        return list(self.data)

    @property
    def dim(self):
        return self.coeffs.shape[1] - self.LEAD

    def __len__(self):
        return len(self.data)

    @classmethod
    def _on_points_of(cls, field: "_StackedField", coeffs,
                      region: str | None = None) -> "_StackedField":
        """A field of this kind holding ``coeffs`` on ``field``'s points, in
        its order, which ``field`` has already checked; on ``region``, or
        on ``field``'s region when that is None."""
        return object.__new__(cls)._checked(field.region if region is None else region,
                                            list(field.data), coeffs)

    def restrict(self, points) -> "_StackedField":
        pts = set(points)
        missing = pts - self.points
        if missing:
            raise FieldMismatchError(
                f"restriction outside field domain: {point_order(missing)[:4]}")
        if len(pts) == len(self.data):
            return self             # the whole domain, and fields are immutable
        keep = [i for i, p in enumerate(self.data) if p in pts]
        order = [p for p in self.data if p in pts]
        return object.__new__(type(self))._set(self.region, order, self.coeffs[keep],
                                               self._kept(map(self.data.get, order)))

    def relabel(self, region: str) -> "_StackedField":
        return object.__new__(type(self))._set(region, self.data, self.coeffs,
                                               self.data.values())


class _JetField(_StackedField):
    """A jet field: row 0 of a point's (1 + dim, *tail) row is the value,
    rows 1: the gradient.  ``data`` holds one ``Jet`` or ``JetMatrix`` per
    row, built from the row by the public validating constructor or kept
    from the objects the field was made of (see the module docstring).
    """

    __slots__ = ()
    LEAD = 1

    @staticmethod
    def _kept(entries: Iterable) -> list:
        return list(entries)


class ScalarField(_JetField):
    """Jet-valued scalar field over the sample points of one region;
    ``coeffs`` has shape (P, 1 + dim)."""

    KIND, NDIM = "scalar field", 1
    SHAPE_MESSAGE = "scalar field rows must be (1 + dim,) vectors"
    MISMATCH_MESSAGE = "jet dims differ: {a.dim} vs {b.dim}"
    FINITE_MESSAGE = "jet components must be finite"

    @staticmethod
    def _entries(coeffs: np.ndarray) -> list:
        return [Jet(r[0], tuple(r[1:])) for r in coeffs.tolist()]


class _Matrices:
    """``rows`` and ``cols`` of a stack of shape (P, k, rows, cols)."""

    __slots__ = ()
    rows = property(lambda self: self.coeffs.shape[2])
    cols = property(lambda self: self.coeffs.shape[3])


class MatrixField(_Matrices, _JetField):
    """Matrix-of-jets field.  Column vectors are the cols == 1 case;
    ``coeffs`` has shape (P, 1 + dim, rows, cols); the slots keep the
    values' determinants and inverses once computed."""

    __slots__ = ("_dets", "_inverse")
    KIND, NDIM = "matrix field", 3
    SHAPE_MESSAGE = "matrix field rows must be (1 + dim, rows, cols) arrays"
    MISMATCH_MESSAGE = "JetMatrix shape mismatch"
    FINITE_MESSAGE = "JetMatrix components must be finite"

    @staticmethod
    def _entries(coeffs: np.ndarray) -> list:
        return list(map(JetMatrix, coeffs[:, 0], coeffs[:, 1:]))

    def _set(self, region: str, order, coeffs: np.ndarray, entries=None) -> "MatrixField":
        _set_field_dets(self, None)
        _set_field_inverse(self, None)
        return super()._set(region, order, coeffs, entries)

    def _determinants(self) -> np.ndarray:
        """``determinants`` of the values, one per point in ``point_order``."""
        d = self._dets
        if d is None:
            d = determinants(self.coeffs[:, 0])
            d.setflags(write=False)
            _set_field_dets(self, d)
        return d

    def _inverses(self) -> np.ndarray:
        """The one invertibility rule: the inverses of the values before
        the first whose |det| lies below ``DET_FLOOR``, at index ``len``;
        all of them for a field ``mat_inv`` made, whose inverses are its
        input's values (of the same condition number).  LAPACK inverts a
        stack matrix by matrix, so each has the bits of inverting its
        value alone."""
        vi = self._inverse
        if vi is None:
            stop = first_true(np.abs(self._determinants()) < DET_FLOOR)
            vi = np.linalg.inv(self.coeffs[:stop, 0])
            vi.setflags(write=False)
            _set_field_inverse(self, vi)
        return vi


_set_field_dets = MatrixField._dets.__set__
_set_field_inverse = MatrixField._inverse.__set__


class OneForm(_StackedField):
    """Differential one-form: per point, real coefficients on the chart basis."""

    KIND, NDIM = "one-form", 1
    SHAPE_MESSAGE = "one-form coefficients must be vectors"
    FINITE_MESSAGE = "one-form coefficients must be finite"


class MatrixOneForm(_Matrices, _StackedField):
    """Matrix-valued one-form: per point an array of shape (dim, rows, cols)."""

    KIND, NDIM = "matrix one-form", 3
    FINITE_MESSAGE = "matrix one-form coefficients must be finite"

    def _check_row(self, shape: tuple) -> None:
        if len(shape) != 3:
            raise FieldMismatchError(f"matrix one-form rows have shape {shape}, "
                                     "expected (dim, rows, cols)")


def _require_aligned(a: _StackedField, b: _StackedField) -> None:
    if a.region != b.region:
        raise FieldMismatchError(f"regions differ: {a.region!r} vs {b.region!r}")
    if a.points != b.points:
        raise FieldMismatchError("fields are defined on different point sets")


def determinants(v: np.ndarray) -> np.ndarray:
    """``np.linalg.det`` without numpy's overflow warning: a determinant
    beyond the float range is inf, which is above any floor."""
    with np.errstate(over="ignore"):
        return np.linalg.det(v)


def first_true(mask) -> int:
    """Index of the first true entry of a boolean vector, else its length."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else len(mask)


def jet_stack(values: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """A jet-field stack from value (P, *tail) and gradient (P, dim, *tail) stacks."""
    return np.concatenate((values[:, None], grads), axis=1)


# -- scalar field algebra ---------------------------------------------------

def d_field(f: ScalarField) -> OneForm:
    """Exterior derivative: reads off each jet's gradient as coefficients."""
    return OneForm._on_points_of(f, f.coeffs[:, 1:])


# -- matrix field algebra ---------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")   # the constructor refuses what overflows
def mat_mul(a: MatrixField, b: MatrixField) -> MatrixField:
    _require_aligned(a, b)
    if a.cols != b.rows:
        raise FieldMismatchError(
            f"matrix shapes {a.rows}x{a.cols} and {b.rows}x{b.cols} do not chain")
    if a.dim != b.dim:
        raise DimensionMismatchError("JetMatrix product shape mismatch")
    ca, cb = a.coeffs, b.coeffs
    value, grad = _leibniz_matmul(ca[:, 0], ca[:, 1:], cb[:, 0], cb[:, 1:])
    return type(a)._on_points_of(a, jet_stack(value, grad))


def mat_inv(a: MatrixField) -> MatrixField:
    """Pointwise inverse, rows in ``point_order``: ``a``'s kept inverses;
    the first point without one raises SingularMatrixError.  The output
    keeps ``a``'s values as its own inverses, so inverting it again
    returns them exactly."""
    pts = a.ordered_points()
    if pts and a.rows != a.cols:
        raise DimensionMismatchError("only square matrices invert")
    vi = a._inverses()
    stop = len(vi)
    v, g = a.coeffs[:stop, 0], a.coeffs[:stop, 1:]
    gi = -np.einsum("pij,pkjl,plm->pkim", vi, g, vi)
    # the inverse's points are a prefix of a's order, already checked
    out = MatrixField._on_points_of(a.restrict(pts[:stop]), jet_stack(vi, gi))
    _set_field_inverse(out, v)
    if stop < len(pts):
        p = pts[stop]
        raise SingularMatrixError(
            f"determinant {float(a._determinants()[stop]):.3e} below floor {DET_FLOOR:.1e} "
            f"at point {p}", point=p)
    return out


@np.errstate(over="ignore", invalid="ignore")   # the constructor refuses what overflows
def mat_scale(a: MatrixField, s) -> MatrixField:
    """Scale a matrix field by a scalar field (jetwise) or a number."""
    if not isinstance(s, ScalarField):
        return type(a)._on_points_of(a, float(s) * a.coeffs)
    _require_aligned(a, s)
    if s.dim != a.dim:
        raise DimensionMismatchError("scalar jet dim mismatch")
    sv, sg = s.coeffs[:, 0, None, None], s.coeffs[:, 1:, None, None]
    v, g = a.coeffs[:, 0], a.coeffs[:, 1:]
    return type(a)._on_points_of(a, jet_stack(sv * v, sg * v[:, None] + sv[:, None] * g))


def constant_matrix_field(region: str, points, matrix, dim: int) -> MatrixField:
    """The field holding one ``JetMatrix``, ``matrix`` with a zero
    gradient in ``dim`` directions, at each of ``points``."""
    m = JetMatrix.constant(matrix, dim)
    order = point_order(points)
    MatrixField._check_points(order)
    row = jet_stack(m.value[None], m.grad[None])
    return object.__new__(MatrixField)._checked(region, order, row.repeat(len(order), axis=0),
                                                [m] * len(order))


# -- residuals --------------------------------------------------------------

@np.errstate(over="ignore")   # a gap beyond the float range is inf
def max_diff(a, b) -> float:
    """Largest entrywise deviation between two arrays; 0.0 when empty."""
    return float(np.max(np.abs(np.subtract(a, b)), initial=0.0))


@np.errstate(over="ignore")   # a gap beyond the float range is inf
def residuals(points, a, b) -> list[tuple]:
    """The (point, ``max_diff`` of its rows) pairs of two stacks, row i
    of each (leading axis) belonging to ``points[i]``."""
    d = np.abs(np.subtract(a, b))
    return list(zip(points, np.max(d, axis=tuple(range(1, d.ndim)), initial=0.0).tolist()))


def diff_rows(a: _StackedField, b: _StackedField) -> list[tuple]:
    """The (point, largest deviation) pairs of two fields of one kind on
    the same points, in ``point_order``: value and gradient entries count
    for jet fields; [] for empty fields."""
    if type(a) is not type(b):
        raise FieldMismatchError(f"cannot compare {type(a).__name__} with {type(b).__name__}")
    if a.points != b.points:
        raise FieldMismatchError("fields are defined on different point sets")
    if not a.data:
        return []
    if a.coeffs.shape != b.coeffs.shape:
        raise DimensionMismatchError(a.MISMATCH_MESSAGE.format(a=a, b=b))
    return residuals(a.ordered_points(), a.coeffs, b.coeffs)


def field_residual(a: _StackedField, b: _StackedField) -> tuple[float, object]:
    """(residual, worst point) of ``diff_rows``; (0.0, None) for empty fields."""
    r = worst("field", 0.0, diff_rows(a, b))
    return r.residual, r.worst_point
