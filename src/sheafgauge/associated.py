"""Vector sheaves associated with principal data through a representation.

A ``RepresentationModel`` packages a group morphism phi into GL(n)
together with the induced algebra map phibar, stored as a constant
m x n^2 matrix in the chosen bases (row-major flattening on the
target side, which is the elementary-matrix basis of ``gl_model(n)``).
``check_lie_type`` verifies the two compatibility conditions that make
the pair usable for transporting connections:

    mc(phi(g)) = phibar . mc(g)          (logarithmic differentials)
    phibar  Ad(g) = Ad(phi(g))  phibar   (adjoint actions)

A vector sheaf E and its principal sheaf of frames share one GL(n)
cocycle, so E is held as that frame data: a ``PrincipalSheafData``
over ``gl_model(n)``.  ``push_cocycle`` applies phi to every transition
entry to build it, and ``principal.check_cocycle`` checks it.  Sections
of E are families of column-vector fields, one per chart, compatible
under its cocycle; they correspond exactly to the equivariant morphisms
handled by ``tensorial_to_section`` / ``section_to_tensorial``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .cover import TAU_GLUE, glue, transport_field
from .errors import (
    EmptyOverlapError,
    EquivarianceError,
    FieldMismatchError,
    NonFiniteError,
    ScenarioError,
)
from .groups import MAX_AMBIENT, GroupModel, _left_inverse, gl_model, mc, rho_matrix, so2_model
from .jets import (
    Jet,
    JetMatrix,
    MatrixField,
    ScalarField,
    diff_rows,
    jet_stack,
    mat_inv,
    mat_mul,
    mat_scale,
    residuals,
)
from .principal import (
    PrincipalSectionLocal,
    PrincipalSheafData,
    _from_identity,
    section_transition,
)
from .report import CheckResult, worst

# Default threshold of the push.* keys, which run ``check_cocycle`` on
# the pushed data: phi may amplify the rounding of the source cocycle.
PUSH_TOL = 1e-10
LIE_TYPE_TOL = 1e-9
REP_TOL = 1e-10
# Default threshold of thm3.tensorial: ``evaluate_tensorial`` on a moved
# section against phi(g^-1) times its value on the original one.
TENSORIAL_TOL = 1e-10


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
        self._pinv = _left_inverse(pb, "phibar")     # (m, n*n); None unless injective
        self.target = gl_model(n)

    @property
    def injective(self) -> bool:
        return self._pinv is not None


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
        lifted = [lift(p, m) for p, m in g.data.items()]
        stack = jet_stack(np.array([m.value for m in lifted]).reshape(-1, n, n),
                          np.array([m.grad for m in lifted]).reshape(-1, g.dim, n, n))
        return object.__new__(MatrixField)._checked(g.region, g.ordered_points(), stack, lifted)

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
        m = re.fullmatch(r"gl1_diag_powers\((-?\d+(?:,-?\d+)*)\)", s)
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


# -- the associated vector sheaf -----------------------------------------------

@dataclass(frozen=True)
class AssociatedSection:
    """Chart components of a section: column-vector fields keyed by region."""
    components: Mapping[str, MatrixField]


@dataclass(frozen=True)
class TensorialMorphismData:
    """An equivariant morphism recorded by its values on natural sections."""
    values: Mapping[str, MatrixField]


def push_cocycle(P: PrincipalSheafData, R: RepresentationModel) -> PrincipalSheafData:
    """The associated vector sheaf E, held as its GL(n) frame data.

    Applies the representation to every transition entry (extensions
    included); the result is a principal object over ``R.target``, so
    its rank is ``E.group.ambient`` and every principal-side check
    applies to it unchanged.
    """
    if not R.source.matches(P.group):
        raise FieldMismatchError(
            f"representation source {R.source.kind} does not match group {P.group.kind}")
    cocycle = {pair: R.phi(f) for pair, f in P.cocycle.items()}
    ext = {pair: R.phi(f) for pair, f in P.ext.items()}
    return PrincipalSheafData(P.cover, R.target, cocycle, ext)


def check_representation(R: RepresentationModel, samples) -> CheckResult:
    """Morphism residual of phi over sample pairs: phi(gh) = phi(g)phi(h),
    and phi(1) = 1 on the domain of the first sample."""
    pairs = []
    first = None
    for g, h in samples:
        first = first if first is not None else g
        lhs = R.phi(mat_mul(g, h))
        rhs = mat_mul(R.phi(g), R.phi(h))
        pairs += diff_rows(lhs, rhs)
    if first is not None:
        unit = R.source.unit_field(first.region, first.points, first.dim)
        pairs += _from_identity([R.phi(unit)])
    return worst("rep.hom", REP_TOL, pairs)


def check_lie_type(R: RepresentationModel, elements) -> dict[str, CheckResult]:
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
        mc_pairs += residuals(lhs.ordered_points(), lhs.coeffs, rhs.coeffs @ R.phibar)

        order, rs = rho_matrix(R.source, g)
        _, rt = rho_matrix(R.target, img)
        rho_pairs += residuals(order, R.phibar.T @ rs, rt @ R.phibar.T)
    return {"mc": worst("lie_type.mc", LIE_TYPE_TOL, mc_pairs),
            "rho": worst("lie_type.rho", LIE_TYPE_TOL, rho_pairs)}


# -- sections -----------------------------------------------------------------

def check_components(E: PrincipalSheafData,
                     comps: Mapping[str, MatrixField]) -> CheckResult:
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
            pairs += diff_rows(comps[a].restrict(shared), mat_mul(gab, vb))
    return worst("compat", TAU_GLUE, pairs)


def _demand_compatible(E, comps, what):
    return check_components(E, comps).require(
        EquivarianceError, f"{what} violates the transition law")


def section_smul(E: PrincipalSheafData, a: ScalarField,
                 s: AssociatedSection) -> AssociatedSection:
    """Multiply a section by a scalar field, chart by chart.

    The scalar may be given on any superset of each component's points;
    it is restricted and relabelled per chart.
    """
    _demand_compatible(E, s.components, "section")
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


def tensorial_to_section(E: PrincipalSheafData,
                         f: TensorialMorphismData) -> AssociatedSection:
    """Read an equivariant morphism as a global section of E.

    The section's chart components are the values of f on the natural
    sections; equivariance is exactly their compatibility, which is
    validated before conversion.
    """
    _demand_compatible(E, f.values, "tensorial morphism")
    return AssociatedSection(dict(f.values))


def section_to_tensorial(E: PrincipalSheafData,
                         s: AssociatedSection) -> TensorialMorphismData:
    """Inverse of ``tensorial_to_section``: the morphism whose value on the
    natural section of each chart is the section's component there."""
    _demand_compatible(E, s.components, "section")
    return TensorialMorphismData(dict(s.components))


def evaluate_tensorial(P: PrincipalSheafData, R: RepresentationModel,
                       f: TensorialMorphismData, s: PrincipalSectionLocal) -> MatrixField:
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
    out = glue(pieces)
    return out.relabel(s.chart)
