"""Matrix group models with adjoint action and logarithmic differential.

A ``GroupModel`` fixes an ambient matrix size k and a basis of the Lie
algebra as k x k matrices; the structure constants of the bracket in
that basis are derived from it.  Group elements are invertible
``MatrixField`` values.

Two maps matter here.  The adjoint representation sends g to the
conjugation a -> g a g^-1, expressed in the Lie basis by
``rho_matrix``, which returns ``(points, stack)``: the points in
``point_order`` and, per point, the (m, m) matrix of Ad(g) whose
column i holds the coefficients of g E_i g^-1.  The logarithmic
differential ``mc`` sends g to g^-1 dg, a Lie-algebra valued
one-form.  Together they give eq7's
gauge action on one-forms, ``gauge_form(g, w) = rho(g^-1) . w + mc(g)``,
the one implementation of the connection law.  It is a right action;
at w = 0 that is the crossed homomorphism rule

    mc(s t) = rho(t^-1) . mc(s) + mc(t)

which ``check_logarithmic_rule`` verifies numerically.  ``span_coeffs``
expands matrix stacks in the Lie basis by least squares and is the one
place that insists the expansion residual stays within ``SPAN_TOL``,
naming the first point that leaves the modeled algebra.  Which
elements have an inverse is ``MatrixField._inverses``' one rule.
These thresholds are fixed module constants, not parameters.

An element's inverses live in the element: a ``MatrixField`` inverts
its values at most once and keeps the result, and ``mat_inv`` hands its
output the input's values as that output's inverses.  So eq7's gauge
action inverts g once: ``mat_inv(g)`` inverts it, ``mc(g)`` reads the
same inverses, and ``rho_matrix`` of ``mat_inv(g)`` forms Ad(g^-1)
from that inverse and g's own values.

Every independence test and every left inverse of a basis (the Lie
basis here, a representation's phibar in ``associated``) is
``_left_inverse``, run once by each model's constructor.  It works on
the Gram system: the rows are independent when the squared sine of
the angle between each row and the span of the rows before it, read
off a Cholesky factor, exceeds ``RANK_TOL``.  The test is relative,
so scaling a basis does not change its verdict, and no report needs an
SVD.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NonFiniteError,
    ScenarioError,
    SingularMatrixError,
    SpanError,
)
from .jets import (
    MatrixField,
    _StackedField,
    _require_aligned,
    constant_matrix_field,
    diff_rows,
    first_true,
    mat_inv,
    mat_mul,
)
from .report import CheckResult, worst

SPAN_TOL = 1e-10
BRACKET_TOL = 1e-12
LOG_RULE_TOL = 1e-9
# Rows count as dependent when the squared sine of the angle between one
# of them and the span of the rows before it is at most this (the Lie
# basis here, a representation's phibar in ``associated``).
RANK_TOL = 1e-10


def _left_inverse(rows: np.ndarray, what: str) -> np.ndarray | None:
    """The left inverse ``solve(A A^T, A)`` of the (m, q) matrix A of
    ``rows``, or None when the rows are linearly dependent.

    Each row is first scaled by the power of two that brings its largest
    entry into [0.5, 1), so that no Gram entry overflows.  The scaled
    Gram matrix is factored by Cholesky: the rows are dependent when
    that fails (a zero row does) or when some squared pivot, over the
    squared length of its row, is at most ``RANK_TOL``; that ratio is
    the squared sine of the angle between a row and the span of the
    rows before it.  The left inverse is solved from the same Gram
    matrix and scaled back, so it has the bits of the unscaled formula
    whenever the rows share one scale, as every shipped basis does; it
    is exact for orthogonal rows, where an SVD-based pinv loses an ulp.
    Non-finite rows raise NonFiniteError naming ``what``.
    """
    if not np.isfinite(rows).all():
        raise NonFiniteError(f"{what} must be finite")
    _, exp = np.frexp(np.max(np.abs(rows), axis=1, keepdims=True, initial=0.0))
    scaled = np.ldexp(rows, -exp)
    gram = scaled @ scaled.T
    try:
        pivots = np.diagonal(np.linalg.cholesky(gram)) ** 2
    except np.linalg.LinAlgError:
        return None
    if (pivots <= RANK_TOL * np.diagonal(gram)).any():
        return None
    return np.ldexp(np.linalg.solve(gram, scaled), -exp)


class LieValuedOneForm(_StackedField):
    """Per point: a (dim, m) array of coefficients, chart directions first,
    Lie basis second."""

    KIND, NDIM = "lie-valued one-form", 2
    SHAPE_MESSAGE = "lie-valued one-form entries must be (dim, m) arrays"
    FINITE_MESSAGE = "lie-valued one-form coefficients must be finite"


class GroupModel:
    """A matrix group kind together with its modeled Lie algebra.

    The structure constants are derived from ``lie_basis``: the bracket
    of every pair of basis matrices must lie in their span to within
    ``BRACKET_TOL``, else SpanError.
    """

    def __init__(self, kind: str, ambient: int, lie_basis):
        self.kind = str(kind)
        self.ambient = int(ambient)
        basis = np.asarray(lie_basis, dtype=float)
        if basis.ndim != 3 or basis.shape[1:] != (self.ambient, self.ambient) \
                or not len(basis):
            raise DimensionMismatchError(
                f"lie basis must be (m, {self.ambient}, {self.ambient}) with m >= 1")
        self.lie_basis = basis
        self.lie_basis.setflags(write=False)
        m = basis.shape[0]
        self._flat = basis.reshape(m, -1)            # (m, k*k)
        self._pinv = _left_inverse(self._flat, "lie basis matrices")  # (m, k*k)
        if self._pinv is None:
            raise SpanError("lie basis matrices are linearly dependent")
        self.structure_constants = self._derive_structure()
        self.structure_constants.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.lie_basis.shape[0]

    def _derive_structure(self) -> np.ndarray:
        """c[i, j] = coefficients of [E_i, E_j]; the first pair (i, j) in
        row-major order whose bracket leaves the span raises SpanError."""
        b = self.lie_basis
        m = b.shape[0]
        prod = b[:, None] @ b[None, :]                   # prod[i, j] = E_i E_j
        brackets = (prod - prod.swapaxes(0, 1)).reshape((m * m, 1) + b.shape[1:])
        coeff, res = self.expand_stack(brackets)
        bad = first_true(res > BRACKET_TOL)
        if bad < m * m:
            i, j = divmod(bad, m)
            raise SpanError(
                f"bracket of basis elements {i}, {j} leaves the span "
                f"(residual {res[bad]:.3e})", residual=float(res[bad]))
        return coeff.reshape(m, m, m)

    def expand_stack(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expand stacks (..., q, k, k) of matrices at once.

        Returns coefficients (..., q, m) and, per leading index, the
        reconstruction residual of its q matrices in max norm.  A
        non-finite entry raises NonFiniteError before any arithmetic.
        """
        flat = mats.reshape(mats.shape[:-2] + (mats.shape[-2] * mats.shape[-1],))
        if not np.isfinite(flat).all():
            raise NonFiniteError(f"matrices expanded in the {self.kind} basis must be finite")
        coeff = flat @ self._pinv.T
        res = np.max(np.abs(coeff @ self._flat - flat), axis=(-2, -1), initial=0.0)
        return coeff, res

    def span_coeffs(self, mats: np.ndarray, points: list, what: str) -> np.ndarray:
        """Coefficients (P, q, m) of a (P, q, k, k) stack with row i at
        ``points[i]``; the first point leaving the span by more than
        ``SPAN_TOL`` raises SpanError naming ``what``."""
        coeff, res = self.expand_stack(mats)
        bad = first_true(res > SPAN_TOL)
        if bad < len(res):
            raise SpanError(
                f"{what} leaves span(lie_basis) at {points[bad]!r} "
                f"(residual {res[bad]:.3e})", point=points[bad], residual=float(res[bad]))
        return coeff

    def unit_field(self, region: str, points, dim: int) -> MatrixField:
        return constant_matrix_field(region, points, np.eye(self.ambient), dim)

    def matches(self, other: "GroupModel") -> bool:
        return (self.kind == other.kind and self.ambient == other.ambient
                and np.array_equal(self.lie_basis, other.lie_basis))


# -- model factories ---------------------------------------------------------

# Largest n of gl(n) and torus(n).  The gl(n) basis has n**4 entries and
# every sample point carries n x n matrices; the demos use n <= 2.
MAX_AMBIENT = 8


def _check_ambient(kind: str, n: int) -> None:
    if n < 1:
        raise DimensionMismatchError(f"{kind}(n) needs n >= 1")
    if n > MAX_AMBIENT:
        raise ScenarioError(
            f"group kind {kind}({n}) exceeds the size limit n <= {MAX_AMBIENT}")


def gl_model(n: int) -> GroupModel:
    """Invertible n x n matrices; the algebra is all of M_n with the
    elementary-matrix basis in row-major order."""
    _check_ambient("gl", n)
    basis = np.eye(n * n).reshape(n * n, n, n)
    return GroupModel(f"gl({n})", n, basis)


def so2_model() -> GroupModel:
    """Plane rotations; one-dimensional algebra spanned by the quarter turn."""
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    return GroupModel("so(2)", 2, j[None, :, :])


def gl1_positive_model() -> GroupModel:
    """Positive scalars viewed as 1 x 1 matrices."""
    return GroupModel("gl1+", 1, np.ones((1, 1, 1)))


def torus_model(n: int) -> GroupModel:
    """Invertible diagonal n x n matrices."""
    _check_ambient("torus", n)
    basis = np.zeros((n, n, n))
    for i in range(n):
        basis[i, i, i] = 1.0
    return GroupModel(f"torus({n})", n, basis)


def model_by_name(name: str) -> GroupModel:
    """Build a group model from its scenario name: gl(n), so(2), gl1+, torus(n)."""
    s = name.strip().lower().replace(" ", "")
    if s == "so(2)":
        return so2_model()
    if s == "gl1+":
        return gl1_positive_model()
    m = re.fullmatch(r"gl\((\d+)\)", s)
    if m:
        return gl_model(int(m.group(1)))
    m = re.fullmatch(r"torus\((\d+)\)", s)
    if m:
        return torus_model(int(m.group(1)))
    raise ScenarioError(f"unknown group kind {name!r}")


# -- operations ---------------------------------------------------------------

def group_mul(g: MatrixField, h: MatrixField) -> MatrixField:
    """Pointwise product of group-element fields; the first point where the
    product has no inverse raises FieldMismatchError."""
    out = mat_mul(g, h)
    bad = len(out._inverses())
    if bad < len(out):
        raise FieldMismatchError(
            f"group product leaves the invertible range at {out.ordered_points()[bad]!r} "
            f"(det {float(out._determinants()[bad]):.3e})")
    return out


def ad_action(model: GroupModel, g: MatrixField, a: MatrixField) -> MatrixField:
    """Conjugation g a g^-1 on an algebra-valued field, span-checked."""
    out = mat_mul(mat_mul(g, a), mat_inv(g))
    model.span_coeffs(out.coeffs[:, :1], out.ordered_points(), "adjoint action")
    return out


def rho_matrix(model: GroupModel, g: MatrixField) -> tuple[list, np.ndarray]:
    """Ad(g) in the Lie basis, as ``(points, stack)``.

    The points are in ``point_order``; entry k of the (P, m, m) stack is
    the matrix of Ad(g) at ``points[k]``, whose column i holds the
    coefficients of g E_i g^-1, so coefficient vectors transform by left
    multiplication.  Only the value part of g enters; coefficients of
    one-forms are plain reals.  The first point whose conjugation leaves
    the span raises SpanError, and the first element without an inverse,
    when no earlier point left the span, raises SingularMatrixError
    naming its point.
    """
    pts = g.ordered_points()
    vi = g._inverses()
    stop = len(vi)
    images = np.einsum("pij,mjk,pkl->pmil", g.coeffs[:stop, 0], model.lie_basis, vi)
    coeff = model.span_coeffs(images, pts, "adjoint action")   # row i: g E_i g^-1
    if stop < len(pts):
        raise _singular(pts[stop])
    return pts, coeff.swapaxes(1, 2)


def _singular(p) -> SingularMatrixError:
    return SingularMatrixError(f"group element not invertible at {p!r}", point=p)


def mc(model: GroupModel, g: MatrixField) -> LieValuedOneForm:
    """Logarithmic differential g^-1 dg as a Lie-algebra valued one-form.

    Points are taken in ``point_order``: the first one whose
    differential leaves the span raises SpanError, and the first one
    without an inverse, when no earlier point left the span, raises
    SingularMatrixError naming its point.
    """
    pts = g.ordered_points()
    vi = g._inverses()
    stop = len(vi)
    coeff = model.span_coeffs(np.einsum("pij,pkjl->pkil", vi, g.coeffs[:stop, 1:]), pts,
                              "logarithmic differential")
    if stop < len(pts):
        raise _singular(pts[stop])
    return LieValuedOneForm._on_points_of(g, coeff)


def rho_dot_form(model: GroupModel, g: MatrixField,
                 w: LieValuedOneForm) -> LieValuedOneForm:
    """Apply Ad(g) to the Lie coefficients of a one-form, directionwise.

    The chart-direction index is untouched: the action is one tensor
    identity on coefficients of each differential separately.
    """
    _require_aligned(g, w)
    _, rho = rho_matrix(model, g)        # rows in point_order, as w's
    return type(w)._on_points_of(w, w.coeffs @ rho.swapaxes(1, 2))


def gauge_form(model: GroupModel, g: MatrixField, w: LieValuedOneForm,
               region: str) -> LieValuedOneForm:
    """eq7's gauge action rho(g^-1) . w + mc(g) on ``region``, in w's
    point order; g and w share region and points."""
    rot = rho_dot_form(model, mat_inv(g), w)
    return type(rot)._on_points_of(rot, rot.coeffs + mc(model, g).coeffs, region)


def check_logarithmic_rule(model: GroupModel, s: MatrixField,
                           t: MatrixField) -> CheckResult:
    """Residual of mc(s t) = gauge_form(t, mc(s)) over the common points."""
    lhs = mc(model, group_mul(s, t))
    rhs = gauge_form(model, t, mc(model, s), t.region)
    return worst("log.crossed", LOG_RULE_TOL, diff_rows(lhs, rhs))
