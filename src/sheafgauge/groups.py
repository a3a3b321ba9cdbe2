"""Matrix group models with adjoint action and logarithmic differential.

A ``GroupModel`` fixes an ambient matrix size k, a basis of the Lie
algebra as k x k matrices, and the structure constants of the bracket
in that basis.  Group elements are invertible ``MatrixField`` values.

Two maps matter here.  The adjoint representation sends g to the
conjugation a -> g a g^-1, expressed in the Lie basis by
``rho_matrix``.  The logarithmic differential ``mc`` sends g to
g^-1 dg, a Lie-algebra valued one-form; it obeys the crossed
homomorphism rule

    mc(s t) = rho(t^-1) . mc(s) + mc(t)

which ``check_logarithmic_rule`` verifies numerically.  Both maps
expand matrices in the Lie basis by least squares and insist the
expansion residual stays tiny, so feeding elements whose conjugation
leaves the modeled algebra is caught at runtime.
"""

from __future__ import annotations

import re
from typing import Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NonFiniteError,
    ScenarioError,
    SpanError,
)
from .jets import (
    DET_FLOOR,
    MatrixField,
    _FormField,
    _require_aligned,
    first_true,
    identity_matrix_field,
    mat_inv,
    mat_mul,
    max_diff_rows,
    stack_grads,
    stack_values,
)
from .report import CheckResult, worst

SPAN_TOL = 1e-10
BRACKET_TOL = 1e-12
LOG_RULE_TOL = 1e-9


class LieValuedOneForm(_FormField):
    """Per point: a (dim, m) array of coefficients, chart directions first,
    Lie basis second."""

    KIND, NDIM = "lie-valued one-form", 2
    SHAPE_MESSAGE = "lie-valued one-form entries must be (dim, m) arrays"
    MIXED_MESSAGE = "mixed shapes in lie-valued one-form"

    def __init__(self, region: str, data: Mapping):
        self._from_mapping(region, data)

    @property
    def rank(self):
        return self.coeffs.shape[2] if self.data else None


class GroupModel:
    """A matrix group kind together with its modeled Lie algebra."""

    def __init__(self, kind: str, ambient: int, lie_basis,
                 structure_constants=None, bracket_tol: float = BRACKET_TOL):
        self.kind = str(kind)
        self.ambient = int(ambient)
        basis = np.asarray(lie_basis, dtype=float)
        if basis.ndim != 3 or basis.shape[1:] != (self.ambient, self.ambient):
            raise DimensionMismatchError(
                f"lie basis must be (m, {self.ambient}, {self.ambient})")
        self.lie_basis = basis
        self.lie_basis.setflags(write=False)
        m = basis.shape[0]
        self._flat = basis.reshape(m, -1)            # (m, k*k)
        if np.linalg.matrix_rank(self._flat, tol=1e-10) != m:
            raise SpanError("lie basis matrices are linearly dependent")
        # left inverse via the Gram system: exact for orthogonal bases,
        # where SVD-based pinv loses an ulp and spoils unit-element checks
        gram = self._flat @ self._flat.T
        self._pinv = np.linalg.solve(gram, self._flat)   # (m, k*k): coeffs = pinv @ flat
        if structure_constants is None:
            structure_constants = self._derive_structure(bracket_tol)
        self.structure_constants = np.asarray(structure_constants, dtype=float)
        if self.structure_constants.shape != (m, m, m):
            raise DimensionMismatchError("structure constants must be (m, m, m)")
        self.structure_constants.setflags(write=False)
        self._check_brackets(bracket_tol)

    @property
    def rank(self) -> int:
        return self.lie_basis.shape[0]

    def _derive_structure(self, tol: float) -> np.ndarray:
        m = self.lie_basis.shape[0]
        c = np.empty((m, m, m))
        for i in range(m):
            for j in range(m):
                br = self.lie_basis[i] @ self.lie_basis[j] \
                    - self.lie_basis[j] @ self.lie_basis[i]
                coeff, res = self.expand(br)
                if res > tol:
                    raise SpanError(
                        f"bracket of basis elements {i}, {j} leaves the span "
                        f"(residual {res:.3e})", residual=res)
                c[i, j] = coeff
        return c

    def _check_brackets(self, tol: float) -> None:
        for i in range(self.rank):
            for j in range(self.rank):
                br = self.lie_basis[i] @ self.lie_basis[j] \
                    - self.lie_basis[j] @ self.lie_basis[i]
                recon = np.einsum("k,kab->ab", self.structure_constants[i, j],
                                  self.lie_basis)
                if np.max(np.abs(br - recon)) > tol:
                    raise SpanError(
                        f"structure constants disagree with brackets at ({i}, {j})")

    def expand(self, matrix: np.ndarray) -> tuple[np.ndarray, float]:
        """Least-squares coefficients of a matrix in the Lie basis.

        Returns (coefficients, reconstruction residual in max norm).
        """
        flat = np.asarray(matrix, dtype=float).reshape(-1)
        coeff = self._pinv @ flat
        res = float(np.max(np.abs(self._flat.T @ coeff - flat), initial=0.0))
        return coeff, res

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

    def combine(self, coeff: np.ndarray) -> np.ndarray:
        """Matrix with the given Lie-basis coefficients."""
        return np.einsum("k,kab->ab", np.asarray(coeff, dtype=float), self.lie_basis)

    def unit_field(self, region: str, points, dim: int) -> MatrixField:
        return identity_matrix_field(region, points, self.ambient, dim)

    def matches(self, other: "GroupModel") -> bool:
        return (self.kind == other.kind and self.ambient == other.ambient
                and self.lie_basis.shape == other.lie_basis.shape
                and bool(np.allclose(self.lie_basis, other.lie_basis)))

    def __repr__(self):
        return f"GroupModel({self.kind!r}, ambient={self.ambient}, rank={self.rank})"


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

def group_mul(g: MatrixField, h: MatrixField,
              det_floor: float = DET_FLOOR) -> MatrixField:
    """Pointwise product of group-element fields; result must stay invertible."""
    out = mat_mul(g, h)
    pts = out.ordered_points()
    det = np.linalg.det(stack_values(out, pts))
    bad = first_true(np.abs(det) < det_floor)
    if bad < len(pts):
        raise FieldMismatchError(
            f"group product leaves the invertible range at {pts[bad]!r} "
            f"(det {float(det[bad]):.3e})")
    return out


def ad_action(model: GroupModel, g: MatrixField, a: MatrixField,
              span_tol: float = SPAN_TOL) -> MatrixField:
    """Conjugation g a g^-1 on an algebra-valued field, span-checked."""
    out = mat_mul(mat_mul(g, a), mat_inv(g))
    pts = out.ordered_points()
    _, res = model.expand_stack(stack_values(out, pts)[:, None])
    bad = first_true(res > span_tol)
    if bad < len(pts):
        raise SpanError(
            f"adjoint action leaves span(lie_basis) at {pts[bad]!r} "
            f"(residual {res[bad]:.3e})", point=pts[bad], residual=float(res[bad]))
    return out


def rho_matrix(model: GroupModel, g: MatrixField,
               span_tol: float = SPAN_TOL) -> dict:
    """Per point, the matrix of Ad(g) in the Lie basis.

    Column i holds the coefficients of g E_i g^-1, so coefficient
    vectors transform by left multiplication.  Only the value part of
    g enters; coefficients of one-forms are plain reals.  Points are
    taken in ``ordered_points`` order: the first one whose conjugation
    leaves the span raises SpanError, and an exactly singular element
    raises numpy's LinAlgError, as ``np.linalg.inv`` does.
    """
    pts, coeff = _rho_stack(model, g, span_tol)
    return dict(zip(pts, coeff.swapaxes(1, 2)))


def _rho_stack(model: GroupModel, g: MatrixField,
               span_tol: float = SPAN_TOL) -> tuple[list, np.ndarray]:
    """``rho_matrix`` as ``(points, stack)``: entry k of the (P, m, m)
    stack is rho at ``points[k]`` transposed, so its row i holds the
    coefficients of g E_i g^-1."""
    pts = g.ordered_points()
    v = stack_values(g, pts)
    sign, _ = np.linalg.slogdet(v)       # zero exactly where inv finds a zero pivot
    stop = first_true(sign == 0.0)
    vi = np.linalg.inv(v[:stop])
    images = np.einsum("pij,mjk,pkl->pmil", v[:stop], model.lie_basis, vi)
    coeff, res = model.expand_stack(images)
    bad = first_true(res > span_tol)
    if bad < stop:
        raise SpanError(
            f"adjoint action leaves span(lie_basis) at {pts[bad]!r} "
            f"(residual {res[bad]:.3e})", point=pts[bad], residual=float(res[bad]))
    if stop < len(pts):
        raise np.linalg.LinAlgError("Singular matrix")
    return pts, coeff


def mc(model: GroupModel, g: MatrixField, det_floor: float = DET_FLOOR,
       span_tol: float = SPAN_TOL) -> LieValuedOneForm:
    """Logarithmic differential g^-1 dg as a Lie-algebra valued one-form.

    Points are taken in ``ordered_points`` order; the first one that is
    not invertible or whose differential leaves the span raises
    SpanError.
    """
    pts = g.ordered_points()
    v, grad = stack_values(g, pts), stack_grads(g, pts)
    stop = first_true(np.abs(np.linalg.det(v)) < det_floor)
    vi = np.linalg.inv(v[:stop])
    coeff, res = model.expand_stack(np.einsum("pij,pkjl->pkil", vi, grad[:stop]))
    bad = first_true(res > span_tol)
    if bad < stop:
        raise SpanError(
            f"logarithmic differential leaves span(lie_basis) at {pts[bad]!r} "
            f"(residual {res[bad]:.3e})", point=pts[bad], residual=float(res[bad]))
    if stop < len(pts):
        raise SpanError(f"group element not invertible at {pts[stop]!r}", point=pts[stop])
    return LieValuedOneForm.from_stack(g.region, pts, coeff)


def rho_dot_form(model: GroupModel, g: MatrixField,
                 w: LieValuedOneForm) -> LieValuedOneForm:
    """Apply Ad(g) to the Lie coefficients of a one-form, directionwise.

    The chart-direction index is untouched: the action is one tensor
    identity on coefficients of each differential separately.  An empty
    form, which may not know its rank, comes back as it is.
    """
    _require_aligned(g, w)
    _, rt = _rho_stack(model, g)         # rows in point_order, as w's
    return w._like(w.region, w.coeffs @ rt) if len(w) else w


def check_logarithmic_rule(model: GroupModel, s: MatrixField, t: MatrixField,
                           tol: float = LOG_RULE_TOL) -> CheckResult:
    """Residual of mc(s t) = rho(t^-1) . mc(s) + mc(t) over the common points."""
    lhs = mc(model, group_mul(s, t))
    rot = rho_dot_form(model, mat_inv(t), mc(model, s))
    dt_part = mc(model, t)
    return worst("log.crossed", tol, zip(
        lhs.ordered_points(), max_diff_rows(lhs.coeffs, rot.coeffs + dt_part.coeffs)))
