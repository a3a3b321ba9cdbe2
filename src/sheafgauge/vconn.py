"""Connections on vector sheaves and their exchange with principal data.

A vector sheaf E is held as its GL(n) frame data (``push_cocycle``), and
an A-linear connection on it is a gl(n) ``PrincipalConnection``: one
Lie-valued one-form per chart in the elementary-matrix basis, which
reads as an n x n matrix one-form row by row.  The paper's eq10,

    theta_b = Ad(G_ab^-1) . theta_a + G_ab^-1 dG_ab

on overlaps, is eq7 for the group GL(n), so ``principal.check_connection``
verifies both laws.

``induce_connection`` checks that the representation is of Lie type on
the transition entries and that the connection obeys eq7, then applies
phibar to each chart form coefficientwise; ``check_frame_roundtrip``
checks the connection itself and applies phibar through the same
private step.  ``pull_back_connection`` inverts that when phibar is
injective, through the left inverse the representation stores, and
insists the forms actually lie in the image.

``nabla_apply`` is the covariant derivative on section components,
d(v_i) + sum_j v_j theta_ij per chart, which satisfies the Leibniz rule
checked by ``check_leibniz_koszul``.
"""

from __future__ import annotations

import numpy as np

from .associated import (
    AssociatedSection,
    RepresentationModel,
    check_lie_type,
    section_smul,
    trivial_rep,
    _demand_compatible,
)
from .cover import TAU_GLUE, transport_form
from .errors import PreconditionError, PullbackImageError
from .groups import LieValuedOneForm
from .jets import MatrixOneForm, ScalarField, d_field, diff_rows, residuals
from .principal import (
    PrincipalConnection,
    PrincipalSheafData,
    check_connection,
)
from .report import CheckResult, worst

KOSZUL_TOL = 1e-12
ROUNDTRIP_TOL = 1e-12
IMAGE_TOL = 1e-9


def induce_connection(P: PrincipalSheafData, R: RepresentationModel,
                      D: PrincipalConnection) -> PrincipalConnection:
    """Push a principal connection through a representation.

    The result is the induced connection on E = ``push_cocycle(P, R)``:
    a gl(n) connection whose chart coefficients are those of D times
    phibar.  Requires the representation to satisfy both compatibility
    conditions on the transition entries and the connection to satisfy
    its own transition law; the induced family then satisfies eq10
    automatically.
    """
    for r in check_lie_type(R, P.transitions()).values():
        r.require(PreconditionError, "representation fails the compatibility conditions")
    check_connection(P, D).require(PreconditionError,
                                   "principal connection fails its transition law")
    return _apply_phibar(R, D)


def _apply_phibar(R: RepresentationModel, D: PrincipalConnection) -> PrincipalConnection:
    """D's chart coefficients times phibar, unchecked."""
    forms = {}
    for chart, w in D.forms.items():
        forms[chart] = LieValuedOneForm._on_points_of(w, w.coeffs @ R.phibar)
    return PrincipalConnection(forms)


def nabla_apply(E: PrincipalSheafData, nab: PrincipalConnection,
                s: AssociatedSection) -> dict[str, MatrixOneForm]:
    """Covariant derivative of a section, chart by chart.

    Component i of the result on chart a is d(v_i) + sum_j v_j theta_ij,
    returned as an n x 1 matrix one-form per chart.
    """
    _demand_compatible(E, s.components, "section")
    n = E.group.ambient
    out = {}
    for chart in sorted(s.components):
        comp = s.components[chart]
        theta = nab.form(chart).restrict(comp.points)
        c = comp.coeffs
        mats = theta.coeffs.reshape(theta.coeffs.shape[:2] + (n, n))
        der = c[:, 1:] + np.einsum("pkij,pjl->pkil", mats, c[:, 0])
        out[chart] = MatrixOneForm._on_points_of(comp, der)
    return out


def check_nabla_agreement(E: PrincipalSheafData, nab: PrincipalConnection,
                          s: AssociatedSection) -> CheckResult:
    """Chart agreement of the covariant derivative.

    The derivative transforms like a section tensored with a one-form:
    on overlaps, the chart-a value must equal G_ab applied to the
    chart-b value after rewriting the form part in chart-a coordinates.
    """
    der = nabla_apply(E, nab, s)
    pairs = []
    charts = sorted(der)
    for i, a in enumerate(charts):
        for b in charts[i + 1:]:
            shared = der[a].points & der[b].points & E.cover.overlap_points(a, b)
            if not shared:
                continue
            gab = E.entry(a, b).restrict(shared)
            db = transport_form(der[b].restrict(shared), E.cover, a)
            want = np.einsum("pij,pkjl->pkil", gab.coeffs[:, 0], db.coeffs)
            pairs += residuals(db.ordered_points(), der[a].restrict(shared).coeffs, want)
    return worst("nabla.agreement", TAU_GLUE, pairs)


def check_leibniz_koszul(E: PrincipalSheafData, nab: PrincipalConnection,
                         a: ScalarField, s: AssociatedSection) -> CheckResult:
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
        ar = a.restrict(order)
        rhs = ar.coeffs[:, 0, None, None, None] * base[chart].coeffs + np.einsum(
            "pk,pil->pkil", d_field(ar).coeffs, s.components[chart].coeffs[:, 0])
        pairs += residuals(order, lhs[chart].coeffs, rhs)
    return worst("koszul", KOSZUL_TOL, pairs)


def pull_back_connection(E: PrincipalSheafData, R: RepresentationModel,
                         nab: PrincipalConnection) -> PrincipalConnection:
    """Recover the principal connection inducing a vector connection.

    Only available when phibar is injective; each chart's gl(n)
    coefficients are expanded through the left inverse of phibar, and
    a reconstruction residual above ``IMAGE_TOL`` (the form leaves the
    image of phibar) is an error naming the offending point.
    """
    if not R.injective:
        raise PullbackImageError("phibar is not injective; no pull-back exists")
    pinv = R._pinv.T                                # (n*n, m)
    forms = {}
    for chart in sorted(nab.forms):
        w = nab.forms[chart]
        pts = w.ordered_points()
        coeff = w.coeffs @ pinv
        for p, d in residuals(pts, coeff @ R.phibar, w.coeffs):
            if d > IMAGE_TOL:
                raise PullbackImageError(
                    f"connection matrices leave the image of phibar at {p!r} "
                    f"(residual {d:.3e})", point=p, residual=d)
        forms[chart] = LieValuedOneForm._on_points_of(w, coeff)
    return PrincipalConnection(forms)


def check_frame_roundtrip(E: PrincipalSheafData, nab: PrincipalConnection) -> CheckResult:
    """Round trip through the frame presentation.

    Takes the vector connection as a principal connection on the frame
    object, induces back through the identity representation, and
    reports the worst deviation from the original forms.  A connection
    that fails its own transition law is rejected before the round trip.
    """
    check_connection(E, nab).require(PreconditionError,
                                     "vector connection fails its transition law")
    back = _apply_phibar(trivial_rep(E.group.ambient), nab)
    return worst("frame.roundtrip", ROUNDTRIP_TOL,
                 [pair for c in sorted(nab.forms)
                  for pair in diff_rows(nab.forms[c], back.forms[c])])
