"""Vector sheaves associated with principal data through a representation.

A ``RepresentationModel`` packages a group morphism phi into GL(n)
together with the induced algebra map phibar, stored as a constant
m x n^2 matrix in the chosen bases (row-major flattening on the
target side).  ``check_lie_type`` verifies the two compatibility
conditions that make the pair usable for transporting connections:

    mc(phi(g)) = phibar . mc(g)          (logarithmic differentials)
    phibar  Ad(g) = Ad(phi(g))  phibar   (adjoint actions)

``push_cocycle`` applies phi to every transition entry, producing the
cocycle of the associated vector sheaf.  Sections of that sheaf are
families of column-vector fields, one per chart, compatible under the
pushed cocycle; they correspond exactly to the equivariant morphisms
handled by ``tensorial_to_section`` / ``section_to_tensorial``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .cover import TAU_GLUE, SampledCover, glue, transport_field
from .errors import (
    EmptyOverlapError,
    EquivarianceError,
    FieldMismatchError,
    NonFiniteError,
    ScenarioError,
)
from .groups import MAX_AMBIENT, GroupModel, _rho_stack, gl_model, mc, so2_model
from .jets import (
    Jet,
    JetMatrix,
    MatrixField,
    ScalarField,
    jet_diff_rows,
    mat_add,
    mat_inv,
    mat_mul,
    mat_scale,
    max_diff_rows,
    point_order,
)
from .principal import (
    PrincipalSectionLocal,
    PrincipalSheafData,
    _from_identity,
    check_cocycle,
    section_transition,
)
from .report import CheckResult, worst

PUSH_TOL = 1e-10
LIE_TYPE_TOL = 1e-9
REP_TOL = 1e-10


class RepresentationModel:
    """A group morphism into GL(n) with its algebra map in fixed bases."""

    def __init__(self, name: str, source: GroupModel, n: int,
                 phi: Callable[[MatrixField], MatrixField], phibar):
        self.name = str(name)
        self.source = source
        self.n = int(n)
        self.phi = phi
        pb = np.asarray(phibar, dtype=float)
        if pb.shape != (source.rank, n * n):
            raise FieldMismatchError(
                f"phibar must be ({source.rank}, {n * n}), got {pb.shape}")
        pb = pb.copy()
        pb.setflags(write=False)
        self.phibar = pb
        self.target = gl_model(n)

    def apply_phibar(self, coeffs: np.ndarray) -> np.ndarray:
        """Map (..., dim, m) source coefficients to (..., dim, n, n) matrices."""
        c = np.asarray(coeffs, dtype=float)
        return (c @ self.phibar).reshape(c.shape[:-1] + (self.n, self.n))

    @property
    def injective(self) -> bool:
        return int(np.linalg.matrix_rank(self.phibar, tol=1e-10)) == self.source.rank

    def __repr__(self):
        return f"RepresentationModel({self.name!r}, n={self.n})"


# -- shipped representations --------------------------------------------------

def trivial_rep(n: int) -> RepresentationModel:
    """GL(n) acting on column vectors through itself; phibar is the identity."""
    src = gl_model(n)
    return RepresentationModel(f"trivial({n})", src, n,
                               lambda g: g, np.eye(n * n))


def so2_in_gl2() -> RepresentationModel:
    """Rotations included into GL(2); phibar sends the quarter turn to itself."""
    src = so2_model()
    phibar = src.lie_basis[0].reshape(1, 4)
    return RepresentationModel("so2_in_gl2", src, 2, lambda g: g, phibar)


def gl1_diag_powers(*powers: int) -> RepresentationModel:
    """Scalars mapped to diag(a^p1, ..., a^pn); phibar(1) = diag(p1, ..., pn)."""
    if not powers:
        raise ScenarioError("gl1_diag_powers needs at least one power")
    pw = [int(p) for p in powers]
    n = len(pw)
    src = gl_model(1)
    name = f"gl1_diag_powers({', '.join(map(str, pw))})"

    def phi(g: MatrixField) -> MatrixField:
        def lift(p, m: JetMatrix) -> JetMatrix:
            a = m.entry(0, 0)
            zero = Jet(0.0, (0.0,) * a.dim)
            rows = []
            for i in range(n):
                row = [zero] * n
                try:
                    row[i] = a ** pw[i]
                except (OverflowError, NonFiniteError):
                    # OverflowError from the float power, NonFiniteError
                    # from the Jet constructor
                    raise ScenarioError(
                        f"representation {name} leaves the floating-point range "
                        f"at point {p} (a = {a.value:.6g}, power {pw[i]})") from None
                rows.append(row)
            return JetMatrix.from_jets(rows)
        return MatrixField(g.region, n, n,
                           {p: lift(p, m) for p, m in g.data.items()})

    phibar = np.diag([float(p) for p in pw]).reshape(1, n * n)
    return RepresentationModel(name, src, n, phi, phibar)


def rep_by_name(name: str, source: GroupModel | None = None) -> RepresentationModel:
    """Parse scenario representation names.

    trivial(n), so2_in_gl2, gl1_diag_powers(p1, ..., pn), with n at most
    ``groups.MAX_AMBIENT``.  When a source model is given, its kind is
    checked against the representation.
    """
    s = name.strip().replace(" ", "")

    def bounded(rank: int) -> int:
        if rank > MAX_AMBIENT:
            raise ScenarioError(f"representation {name!r} has rank {rank}, "
                                f"above the size limit {MAX_AMBIENT}")
        return rank

    rep = None
    m = re.fullmatch(r"trivial\((\d+)\)", s)
    if m:
        rep = trivial_rep(bounded(int(m.group(1))))
    elif s == "so2_in_gl2":
        rep = so2_in_gl2()
    else:
        m = re.fullmatch(r"gl1_diag_powers\(([-\d,]+)\)", s)
        if m:
            powers = [int(x) for x in m.group(1).split(",")]
            bounded(len(powers))
            rep = gl1_diag_powers(*powers)
    if rep is None:
        raise ScenarioError(f"unknown representation {name!r}")
    if source is not None and source.ambient != rep.source.ambient:
        raise ScenarioError(
            f"representation {name!r} expects ambient {rep.source.ambient}, "
            f"group has {source.ambient}")
    return rep


# -- vector sheaf data ---------------------------------------------------------

class VectorSheafData:
    """Cover + rank + GL(n)-valued transition cocycle."""

    def __init__(self, cover: SampledCover, rank: int,
                 cocycle: Mapping[tuple, MatrixField],
                 ext: Mapping[tuple, MatrixField] | None = None):
        self.cover = cover
        self.rank = int(rank)
        self._principal = PrincipalSheafData(cover, gl_model(rank), cocycle, ext)

    @property
    def cocycle(self):
        return self._principal.cocycle

    @property
    def ext(self):
        return self._principal.ext

    def entry(self, a: str, b: str) -> MatrixField:
        return self._principal.entry(a, b)

    def extended_entry(self, a: str, b: str) -> MatrixField:
        return self._principal.extended_entry(a, b)

    def as_principal(self) -> PrincipalSheafData:
        """The same transition data viewed as a GL(rank) principal object."""
        return self._principal


@dataclass(frozen=True)
class AssociatedSection:
    """Chart components of a section: column-vector fields keyed by region."""
    components: Mapping[str, MatrixField]


@dataclass(frozen=True)
class TensorialMorphismData:
    """An equivariant morphism recorded by its values on natural sections."""
    values: Mapping[str, MatrixField]


def check_vector_cocycle(E: VectorSheafData,
                         tol: float = PUSH_TOL) -> dict[str, CheckResult]:
    return check_cocycle(E.as_principal(), tol)


def push_cocycle(P: PrincipalSheafData, R: RepresentationModel) -> VectorSheafData:
    """Apply the representation to every transition entry."""
    if not R.source.matches(P.group):
        raise FieldMismatchError(
            f"representation source {R.source.kind} does not match group {P.group.kind}")
    cocycle = {pair: R.phi(f) for pair, f in P.cocycle.items()}
    ext = {pair: R.phi(f) for pair, f in P.ext.items()}
    return VectorSheafData(P.cover, R.n, cocycle, ext)


def check_representation(R: RepresentationModel, samples,
                         tol: float = REP_TOL) -> CheckResult:
    """Morphism residual of phi over sample pairs: phi(gh) = phi(g)phi(h),
    and phi(1) = 1 on the domain of the first sample."""
    pairs = []
    first = None
    for g, h in samples:
        first = first if first is not None else g
        lhs = R.phi(mat_mul(g, h))
        rhs = mat_mul(R.phi(g), R.phi(h))
        order = lhs.ordered_points()
        pairs += zip(order, jet_diff_rows(lhs, rhs, order))
    if first is not None:
        unit = R.source.unit_field(first.region, first.points, first.dim)
        pairs += _from_identity([R.phi(unit)])
    return worst("rep.hom", tol, pairs)


def check_lie_type(R: RepresentationModel, elements,
                   tol: float = LIE_TYPE_TOL) -> dict[str, CheckResult]:
    """Residuals of the two compatibility conditions over the elements.

    ``mc``  compares the logarithmic differential of phi(g) with phibar
    applied to that of g; ``rho`` compares the two ways of carrying the
    adjoint action across phibar.  Reported separately.
    """
    mc_pairs, rho_pairs = [], []
    for g in elements:
        img = R.phi(g)
        lhs = mc(R.target, img)
        rhs = mc(R.source, g)
        mc_pairs += zip(lhs.ordered_points(),
                        max_diff_rows(lhs.coeffs, rhs.coeffs @ R.phibar))

        # stacks of coefficient matrices, rows in point_order; rho is
        # their transpose
        order, cs = _rho_stack(R.source, g)
        _, ct = _rho_stack(R.target, img)
        rho_pairs += zip(order, max_diff_rows(R.phibar.T @ cs.swapaxes(1, 2),
                                              ct.swapaxes(1, 2) @ R.phibar.T))
    return {"mc": worst("lie_type.mc", tol, mc_pairs),
            "rho": worst("lie_type.rho", tol, rho_pairs)}


# -- sections -----------------------------------------------------------------

def check_components(E: VectorSheafData, comps: Mapping[str, MatrixField],
                     tol: float = TAU_GLUE) -> CheckResult:
    """Compatibility of chart components: v_a = G_ab v_b where both live."""
    pairs = []
    charts = sorted(comps)
    for i, a in enumerate(charts):
        for b in charts[i + 1:]:
            shared = comps[a].points & comps[b].points \
                & E.cover.overlap_points(a, b)
            if not shared:
                continue
            gab = E.entry(a, b).restrict(shared)
            vb = transport_field(comps[b].restrict(shared), E.cover, a)
            order = point_order(shared)
            pairs += zip(order, jet_diff_rows(comps[a].restrict(shared),
                                              mat_mul(gab, vb), order))
    return worst("compat", tol, pairs)


def _demand_compatible(E, comps, tol, what):
    verdict = check_components(E, comps, tol)
    if not verdict.passed:
        raise EquivarianceError(
            f"{what} violates the transition law by {verdict.residual:.3e} "
            f"at {verdict.worst_point!r}",
            residual=verdict.residual, point=verdict.worst_point)
    return verdict


def section_add(E: VectorSheafData, s: AssociatedSection, t: AssociatedSection,
                tol: float = TAU_GLUE) -> AssociatedSection:
    _demand_compatible(E, s.components, tol, "left summand")
    _demand_compatible(E, t.components, tol, "right summand")
    if set(s.components) != set(t.components):
        raise FieldMismatchError("sections have different chart families")
    out = {a: mat_add(s.components[a], t.components[a]) for a in s.components}
    return AssociatedSection(out)


def section_smul(E: VectorSheafData, a: ScalarField, s: AssociatedSection,
                 tol: float = TAU_GLUE) -> AssociatedSection:
    """Multiply a section by a scalar field, chart by chart.

    The scalar may be given on any superset of each component's points;
    it is restricted and relabelled per chart.
    """
    _demand_compatible(E, s.components, tol, "section")
    out = {}
    for chart, comp in s.components.items():
        if not comp.points <= a.points:
            raise FieldMismatchError(
                f"scalar field does not cover component points on {chart!r}")
        scal = a.restrict(comp.points).relabel(comp.region)
        out[chart] = mat_scale(comp, scal)
    return AssociatedSection(out)


def quotient_reduce(P: PrincipalSheafData, R: RepresentationModel,
                    s: PrincipalSectionLocal, h: MatrixField) -> MatrixField:
    """Canonical chart component of the class of (section, vector data).

    The pair (s_a g, h) and (s_a, phi(g) h) name the same element, so
    the reduced representative on chart a is phi(g) h.
    """
    if h.cols != 1 or h.rows != R.n:
        raise FieldMismatchError(f"vector data must be {R.n}x1")
    if h.points != s.points:
        raise FieldMismatchError("vector data and section domain differ")
    return mat_mul(R.phi(s.factor), h.relabel(s.factor.region))


def tensorial_to_section(E: VectorSheafData, P: PrincipalSheafData,
                         R: RepresentationModel, f: TensorialMorphismData,
                         tol: float = TAU_GLUE) -> AssociatedSection:
    """Read an equivariant morphism as a global section of E.

    The section's chart components are the values of f on the natural
    sections; equivariance is exactly their compatibility, which is
    validated before conversion.
    """
    _demand_compatible(E, f.values, tol, "tensorial morphism")
    return AssociatedSection(dict(f.values))


def section_to_tensorial(E: VectorSheafData, P: PrincipalSheafData,
                         R: RepresentationModel, s: AssociatedSection,
                         tol: float = TAU_GLUE) -> TensorialMorphismData:
    """Inverse of ``tensorial_to_section``: the morphism whose value on the
    natural section of each chart is the section's component there."""
    _demand_compatible(E, s.components, tol, "section")
    return TensorialMorphismData(dict(s.components))


def evaluate_tensorial(P: PrincipalSheafData, R: RepresentationModel,
                       f: TensorialMorphismData, s: PrincipalSectionLocal,
                       tol: float = TAU_GLUE) -> MatrixField:
    """Value of the morphism on an arbitrary local section.

    On each chart a meeting the section's domain, write s = s_a g_a and
    evaluate phi(g_a^-1) f_a; the chart answers are glued, which also
    verifies they agree on chart intersections.
    """
    pieces = {}
    for a in sorted(f.values):
        try:
            sa = section_transition(P, s, a)
        except EmptyOverlapError:
            continue
        pts = sa.points & f.values[a].points
        if not pts:
            continue
        fa = f.values[a].restrict(pts)
        val = mat_mul(R.phi(mat_inv(sa.factor.restrict(pts))), fa)
        pieces[a] = transport_field(val, P.cover, s.chart)
    if not pieces:
        raise EmptyOverlapError("morphism values do not meet the section domain")
    out = glue(pieces, tol)
    return out.relabel(s.chart)
