"""Connections on vector sheaves and their exchange with principal data.

A vector connection is a family of n x n matrix one-forms, one per
chart, subject to the gauge transformation law

    theta_b = Ad(G_ab^-1) . theta_a + G_ab^-1 dG_ab

on overlaps.  Rather than duplicating that law, this module reads the
matrix forms as Lie-algebra valued forms for the GL(n) model (the
elementary-matrix basis makes the translation a reshape) and reuses the
principal-side transition check, so one code path verifies both laws.

``induce_connection`` transports a principal connection through a
representation by applying phibar to each chart form coefficientwise.
``pull_back_connection`` inverts that when phibar is injective, using
its pseudo-inverse and insisting the matrix forms actually lie in the
image.  ``nabla_apply`` is the covariant derivative on section
components, d(v_i) + sum_j v_j theta_ij per chart, which satisfies the
Leibniz rule checked by ``check_leibniz_koszul``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .associated import (
    LIE_TYPE_TOL,
    AssociatedSection,
    RepresentationModel,
    VectorSheafData,
    check_lie_type,
    section_smul,
    trivial_rep,
    _demand_compatible,
)
from .cover import TAU_GLUE, transport_form
from .errors import (
    FieldMismatchError,
    MissingEntryError,
    PreconditionError,
    PullbackImageError,
)
from .groups import LieValuedOneForm
from .jets import (
    JetMatrix,
    MatrixOneForm,
    ScalarField,
    constant_matrix_field,
    first_true,
    form_diff_rows,
    max_diff_rows,
    stack_grads,
    stack_values,
)
from .principal import (
    PrincipalConnection,
    PrincipalSheafData,
    check_connection,
)
from .report import CheckResult, worst

KOSZUL_TOL = 1e-12
ROUNDTRIP_TOL = 1e-12
IMAGE_TOL = 1e-9


@dataclass(frozen=True)
class VectorConnection:
    """One n x n matrix one-form per chart, keyed by region id."""
    forms: Mapping[str, MatrixOneForm]

    def form(self, chart: str) -> MatrixOneForm:
        try:
            return self.forms[chart]
        except KeyError:
            raise MissingEntryError(f"no connection matrices on chart {chart!r}") from None


def matrix_form_to_lie(w: MatrixOneForm) -> LieValuedOneForm:
    """Reshape (dim, n, n) data to GL(n) Lie coefficients (dim, n*n)."""
    shape = w.coeffs.shape[:2] + (w.rows * w.cols,)
    return LieValuedOneForm.from_stack(w.region, w.ordered_points(), w.coeffs.reshape(shape))


def lie_form_to_matrix(w: LieValuedOneForm, n: int) -> MatrixOneForm:
    return MatrixOneForm.from_stack(
        w.region, w.ordered_points(), w.coeffs.reshape(w.coeffs.shape[:2] + (n, n)))


def _as_principal_connection(nab: VectorConnection) -> PrincipalConnection:
    return PrincipalConnection(
        {chart: matrix_form_to_lie(w) for chart, w in nab.forms.items()})


def check_vector_connection(E: VectorSheafData, nab: VectorConnection,
                            tol: float = TAU_GLUE) -> CheckResult:
    """Worst violation of the matrix transition law over all overlaps.

    Delegates to the principal-side check against the frame cocycle of
    E, with adjoint action and logarithmic differential supplied by the
    GL(rank) model.
    """
    return check_connection(E.as_principal(), _as_principal_connection(nab), tol)


def induce_connection(P: PrincipalSheafData, R: RepresentationModel,
                      D: PrincipalConnection, tol: float = TAU_GLUE,
                      lie_type_tol: float = LIE_TYPE_TOL,
                      verify: bool = True) -> VectorConnection:
    """Push a principal connection through a representation.

    Requires the representation to satisfy both compatibility
    conditions on the transition entries and the connection to satisfy
    its own transition law; the induced family then satisfies the
    matrix law automatically.
    """
    if verify:
        entries = [f for (a, b), f in sorted(P.cocycle.items())
                   if a != b and len(f)]
        lt = check_lie_type(R, entries, lie_type_tol)
        bad = [r for r in lt.values() if not r.passed]
        if bad:
            raise PreconditionError(
                f"representation fails the compatibility conditions "
                f"(residual {bad[0].residual:.3e})", residual=bad[0].residual)
        verdict = check_connection(P, D, tol)
        if not verdict.passed:
            raise PreconditionError(
                f"principal connection fails its transition law "
                f"(residual {verdict.residual:.3e})", residual=verdict.residual)
    forms = {}
    for chart, w in D.forms.items():
        # an empty form may not know its rank; its image holds no matrices
        coeffs = R.apply_phibar(w.coeffs) if len(w) else np.zeros((0, 0, R.n, R.n))
        forms[chart] = MatrixOneForm.from_stack(w.region, w.ordered_points(), coeffs)
    return VectorConnection(forms)


def nabla_apply(E: VectorSheafData, nab: VectorConnection,
                s: AssociatedSection, tol: float = TAU_GLUE) -> dict[str, MatrixOneForm]:
    """Covariant derivative of a section, chart by chart.

    Component i of the result on chart a is d(v_i) + sum_j v_j theta_ij,
    returned as an n x 1 matrix one-form per chart.
    """
    _demand_compatible(E, s.components, tol, "section")
    out = {}
    for chart in sorted(s.components):
        comp = s.components[chart]
        theta = nab.form(chart).restrict(comp.points)
        pts = theta.ordered_points()
        der = stack_grads(comp, pts) + np.einsum(
            "pkij,pjl->pkil", theta.coeffs, stack_values(comp, pts))
        out[chart] = MatrixOneForm.from_stack(comp.region, pts, der)
    return out


def check_nabla_agreement(E: VectorSheafData, nab: VectorConnection,
                          s: AssociatedSection, tol: float = TAU_GLUE) -> CheckResult:
    """Chart agreement of the covariant derivative.

    The derivative transforms like a section tensored with a one-form:
    on overlaps, the chart-a value must equal G_ab applied to the
    chart-b value after rewriting the form part in chart-a coordinates.
    """
    der = nabla_apply(E, nab, s, tol)
    pairs = []
    charts = sorted(der)
    for i, a in enumerate(charts):
        for b in charts[i + 1:]:
            shared = der[a].points & der[b].points & E.cover.overlap_points(a, b)
            if not shared:
                continue
            gab = E.entry(a, b).restrict(shared)
            db = transport_form(der[b].restrict(shared), E.cover, a)
            order = db.ordered_points()
            want = np.einsum("pij,pkjl->pkil", stack_values(gab, order), db.coeffs)
            pairs += zip(order, max_diff_rows(der[a].restrict(shared).coeffs, want))
    return worst("nabla.agreement", tol, pairs)


def check_leibniz_koszul(E: VectorSheafData, nab: VectorConnection,
                         a: ScalarField, s: AssociatedSection,
                         tol: float = KOSZUL_TOL) -> CheckResult:
    """Residual of nabla(a s) = a nabla(s) + s (x) da, chart by chart.

    The scalar field must cover every component's points; its jet value
    scales the derivative, its gradient supplies the da term.
    """
    scaled = section_smul(E, a, s)
    lhs = nabla_apply(E, nab, scaled)
    base = nabla_apply(E, nab, s)
    pairs = []
    for chart in sorted(lhs):
        order = lhs[chart].ordered_points()
        jets = [a.data[p] for p in order]
        av = np.array([j.value for j in jets]).reshape(-1, 1, 1, 1)
        ag = np.array([j.grad_tuple for j in jets]).reshape(-1, a.dim or 1)
        rhs = av * base[chart].coeffs + np.einsum(
            "pk,pil->pkil", ag, stack_values(s.components[chart], order))
        pairs += zip(order, max_diff_rows(lhs[chart].coeffs, rhs))
    return worst("koszul", tol, pairs)


def pull_back_connection(E: VectorSheafData, R: RepresentationModel,
                         nab: VectorConnection,
                         image_tol: float = IMAGE_TOL) -> PrincipalConnection:
    """Recover the principal connection inducing a vector connection.

    Only available when phibar is injective; each chart's matrices are
    expanded through the pseudo-inverse of phibar, and a reconstruction
    residual above ``image_tol`` (the matrices leave the image of
    phibar) is an error naming the offending point.
    """
    if not R.injective:
        raise PullbackImageError("phibar is not injective; no pull-back exists")
    pinv = np.linalg.pinv(R.phibar)     # (n*n, m)
    forms = {}
    for chart in sorted(nab.forms):
        w = nab.forms[chart]
        pts = w.ordered_points()
        flat = w.coeffs.reshape(w.coeffs.shape[:2] + (R.n * R.n,))
        coeff = flat @ pinv
        res = max_diff_rows(coeff @ R.phibar, flat)
        bad = first_true(np.greater(res, image_tol))
        if bad < len(pts):
            raise PullbackImageError(
                f"connection matrices leave the image of phibar at {pts[bad]!r} "
                f"(residual {res[bad]:.3e})", point=pts[bad], residual=res[bad])
        forms[chart] = LieValuedOneForm.from_stack(w.region, pts, coeff)
    return PrincipalConnection(forms)


def frame_sheaf(E: VectorSheafData) -> tuple[PrincipalSheafData, RepresentationModel]:
    """The principal object of frames of E with its defining representation.

    The transition cocycle is E's own, viewed in the GL(rank) model;
    the representation is the identity on GL(rank).
    """
    return E.as_principal(), trivial_rep(E.rank)


def frame_section(E: VectorSheafData, chart: str, j: int) -> AssociatedSection:
    """The j-th natural frame section over a chart.

    Its own-chart component is the constant j-th basis column; on every
    other chart the component is the cocycle column, cut to that
    chart's region (extended entries carry it past the overlap).  The
    extensions of different charts need not agree away from the home
    chart: a twisted cocycle shows its monodromy there.
    """
    if not 0 <= j < E.rank:
        raise FieldMismatchError(f"frame index {j} out of range")
    ej = np.zeros((E.rank, 1))
    ej[j, 0] = 1.0
    comps = {chart: constant_matrix_field(chart, E.cover.regions[chart], ej,
                                          E.cover.dim(chart))}
    for b in E.cover.region_ids():
        if b == chart:
            continue
        try:
            gba = E.extended_entry(b, chart)
        except MissingEntryError:
            continue
        pts = gba.points & E.cover.regions[b]
        if not pts:
            continue
        comps[b] = gba.restrict(pts).map_entries(
            lambda p, m: m.matmul(JetMatrix.constant(ej, m.dim)), rows=E.rank, cols=1)
    return AssociatedSection(comps)


def check_frame_roundtrip(E: VectorSheafData, nab: VectorConnection,
                          tol: float = ROUNDTRIP_TOL,
                          law_tol: float = TAU_GLUE) -> CheckResult:
    """Round trip through the frame presentation.

    Reads the vector connection as a principal connection on the frame
    object, induces back through the identity representation, and
    reports the worst deviation from the original matrices.  A
    connection that fails its own transition law is rejected before the
    round trip.
    """
    verdict = check_vector_connection(E, nab, law_tol)
    if not verdict.passed:
        raise PreconditionError(
            f"vector connection fails its transition law "
            f"(residual {verdict.residual:.3e})", residual=verdict.residual)
    P, R = frame_sheaf(E)
    D = _as_principal_connection(nab)
    back = induce_connection(P, R, D, tol=law_tol, verify=False)
    pairs = []
    for c in sorted(nab.forms):
        order = nab.forms[c].ordered_points()
        pairs += zip(order, form_diff_rows(nab.forms[c], back.forms[c], order))
    return worst("frame.roundtrip", tol, pairs)
