"""Principal sheaf data: cocycles, local sections, connections.

A principal object here is a sampled cover, a group model, and a
cocycle of group-element fields over the overlaps.  Entries are stored
for every ordered pair with nonempty overlap, with gradients expressed
in the chart of the pair's first region; ``from_pairs`` fills inverse
and diagonal entries from the upper pairs you actually specify.

Connections are families of Lie-algebra valued one-forms, one per
chart, tied together by the transition law

    w_b = rho(g_ab^-1) . w_a + mc(g_ab)      on the overlap of a and b,

where mc is the logarithmic differential of the transition element.
The right-hand side is ``groups.gauge_form(g_ab, w_a)``, and each use
of the law calls it.  ``check_connection`` measures the worst violation
of that law and ``complete_connection`` constructs all chart forms from
a seed on one chart by propagating it along a spanning tree of the
overlap graph; its final check raises through ``CheckResult.require``.

Propagation needs values beyond overlaps: the transition law only
determines a child form where the parent data and the transition
element are both defined.  Cocycle entries and seeds may therefore
carry data on more points than their nominal domains (scenario files
evaluate their expressions everywhere for exactly this purpose), and
``complete_connection`` consumes those extended fields.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .cover import (
    JACOBIAN_TOL,
    TAU_GLUE,
    SampledCover,
    transport_field,
    transport_form,
)
from .errors import (
    CoverError,
    CycleInconsistencyError,
    EmptyOverlapError,
    FieldMismatchError,
    MissingEntryError,
    MissingExtensionError,
    SingularMatrixError,
)
from .groups import GroupModel, LieValuedOneForm, gauge_form
from .jets import (
    MatrixField,
    diff_rows,
    mat_inv,
    mat_mul,
    point_order,
    residuals,
)
from .report import CheckResult, worst

COCYCLE_TOL = 1e-12


@dataclass(frozen=True)
class PrincipalSectionLocal:
    """A local section presented as chart id plus group-element factor.

    The section is the natural chart section times ``factor``; its
    domain is wherever the factor field is defined.
    """
    chart: str
    factor: MatrixField

    @property
    def points(self) -> frozenset:
        return self.factor.points


@dataclass(frozen=True)
class PrincipalConnection:
    """One Lie-algebra valued one-form per chart, keyed by region id."""
    forms: Mapping[str, LieValuedOneForm]

    def form(self, chart: str) -> LieValuedOneForm:
        try:
            return self.forms[chart]
        except KeyError:
            raise MissingEntryError(f"no connection form on chart {chart!r}") from None


class PrincipalSheafData:
    """Cover + group model + transition cocycle (+ optional extensions)."""

    def __init__(self, cover: SampledCover, group: GroupModel,
                 cocycle: Mapping[tuple, MatrixField],
                 ext: Mapping[tuple, MatrixField] | None = None):
        self.cover = cover
        self.group = group
        self.cocycle = {(str(a), str(b)): f for (a, b), f in dict(cocycle).items()}
        self.ext = {(str(a), str(b)): f for (a, b), f in dict(ext or {}).items()}
        k = group.ambient
        for (a, b), f in self.cocycle.items():
            want = cover.overlap_points(a, b)
            if f.points != want:
                raise FieldMismatchError(
                    f"cocycle entry ({a}, {b}) defined on {len(f)} points, "
                    f"overlap has {len(want)}")
            if (f.rows, f.cols) != (k, k):
                raise FieldMismatchError(
                    f"cocycle entry ({a}, {b}) is {f.rows}x{f.cols}, ambient is {k}")
        for (a, b), f in self.ext.items():
            if not cover.overlap_points(a, b) <= f.points:
                raise FieldMismatchError(
                    f"extended entry ({a}, {b}) does not cover the overlap")

    def transitions(self) -> list[MatrixField]:
        """The cocycle entries between two distinct charts that share
        points, in sorted pair order."""
        return [f for (a, b), f in sorted(self.cocycle.items()) if a != b and len(f)]

    @classmethod
    def from_pairs(cls, cover: SampledCover, group: GroupModel,
                   entries: Mapping[tuple, MatrixField],
                   ext: Mapping[tuple, MatrixField] | None = None) -> "PrincipalSheafData":
        """Build the full ordered-pair cocycle from one entry per pair.

        Diagonal entries become identities, the reversed pairs become
        pointwise inverses transported into the second chart.  A singular
        entry raises SingularMatrixError prefixed with ``cocycle (a, b): ``.
        """
        cocycle = {}
        for (a, b), f in entries.items():
            a, b = str(a), str(b)
            cocycle[(a, b)] = f
            if (b, a) not in entries:
                cocycle[(b, a)] = transport_field(_entry_inverse(f, a, b), cover, b)
        for rid, pts in cover.regions.items():
            cocycle.setdefault((rid, rid),
                               group.unit_field(rid, pts, cover.dim(rid)))
        ext_full = {}
        for (a, b), f in dict(ext or {}).items():
            a, b = str(a), str(b)
            ext_full[(a, b)] = f
            if (b, a) not in (ext or {}):
                # beyond the overlap there is no jacobian; extended data is
                # only meaningful on shared-coordinate covers, so relabel
                ext_full[(b, a)] = _entry_inverse(f, a, b).relabel(b)
        return cls(cover, group, cocycle, ext_full)

    def entry(self, a: str, b: str) -> MatrixField:
        try:
            return self.cocycle[(a, b)]
        except KeyError:
            raise MissingEntryError(f"no cocycle entry for ({a!r}, {b!r})") from None

    def extended_entry(self, a: str, b: str) -> MatrixField:
        """Best available field for the pair: extension if present, else
        the overlap entry."""
        if (a, b) in self.ext:
            return self.ext[(a, b)]
        return self.entry(a, b)

    def overlap_graph_edges(self) -> list[tuple[str, str]]:
        out = []
        for a, b in self.cover.overlap_pairs():
            if (a, b) in self.cocycle or (b, a) in self.cocycle:
                out.append((a, b))
        return out


def _entry_inverse(f: MatrixField, a: str, b: str) -> MatrixField:
    """``mat_inv`` of the cocycle entry (a, b), its failure named under
    the entry."""
    try:
        return mat_inv(f)
    except SingularMatrixError as e:
        raise SingularMatrixError(f"cocycle ({a}, {b}): {e}", point=e.point) from None


def check_cocycle(P: PrincipalSheafData) -> dict[str, CheckResult]:
    """Residuals of the three cocycle identities against ``COCYCLE_TOL``.

    unit     g_aa = 1 on each region,
    inverse  g_ab g_ba = 1 on each overlap,
    triple   g_ab g_bc = g_ac on each triple overlap,

    with every product taken in the chart of the first region (fields
    from other charts are transported there first).
    """
    cover = P.cover
    ids = cover.region_ids()
    units = [P.cocycle[(a, a)] for a in ids if (a, a) in P.cocycle]

    inverses = []
    for a in ids:
        for b in ids:
            if a == b or (a, b) not in P.cocycle:
                continue
            ab = P.cocycle[(a, b)]
            if not ab.points:
                continue
            ba = transport_field(P.entry(b, a), cover, a)
            inverses.append(mat_mul(ab, ba))

    triples = []
    for a in ids:
        for b in ids:
            for c in ids:
                if len({a, b, c}) < 3:
                    continue
                pts = cover.regions[a] & cover.regions[b] & cover.regions[c]
                if not pts:
                    continue
                if not all(k in P.cocycle for k in [(a, b), (b, c), (a, c)]):
                    continue
                ab = P.cocycle[(a, b)].restrict(pts)
                bc = transport_field(P.cocycle[(b, c)].restrict(pts), cover, a)
                ac = P.cocycle[(a, c)].restrict(pts)
                triples += diff_rows(mat_mul(ab, bc), ac)

    pairs = {"unit": _from_identity(units), "inverse": _from_identity(inverses),
             "triple": triples}
    return {k: worst(k, COCYCLE_TOL, v) for k, v in pairs.items()}


def _from_identity(fields):
    """(point, deviation from the constant identity) over each field in turn."""
    for f in fields:
        unit = np.zeros(f.coeffs.shape[1:])
        unit[0] = np.eye(f.rows)
        yield from residuals(f.ordered_points(), f.coeffs, unit)


def section_transition(P: PrincipalSheafData, s: PrincipalSectionLocal,
                       b: str) -> PrincipalSectionLocal:
    """Present a local section in another chart.

    If s is the natural section of chart a times g, the same section
    over chart b is the natural section of b times g_ba g, defined on
    the part of s's domain meeting b.
    """
    a = s.chart
    pts = s.points & P.cover.regions[b]
    if not pts:
        raise EmptyOverlapError(
            f"section domain does not meet region {b!r}")
    if a == b:
        return PrincipalSectionLocal(b, s.factor.restrict(pts))
    gba = P.entry(b, a).restrict(pts)
    fac = transport_field(s.factor.restrict(pts), P.cover, b)
    return PrincipalSectionLocal(b, mat_mul(gba, fac))


def check_connection(P: PrincipalSheafData, D: PrincipalConnection) -> CheckResult:
    """Worst violation of the connection transition law over all overlaps.

    For each ordered pair (a, b) the form of b is transported into the
    chart of a and compared against gauge_form(g_ab, w_a), still written
    in chart-a coordinates.
    """
    pairs = []
    for a, b in P.overlap_graph_edges():
        for x, y in [(a, b), (b, a)]:
            pts = P.cover.overlap_points(x, y)
            rhs = gauge_form(P.group, P.entry(x, y).restrict(pts), D.form(x).restrict(pts), x)
            lhs = transport_form(D.form(y).restrict(pts), P.cover, x)
            pairs += diff_rows(lhs, rhs)
    return worst("connection", TAU_GLUE, pairs)


def complete_connection(P: PrincipalSheafData,
                        seed: tuple[str, LieValuedOneForm]) -> PrincipalConnection:
    """Extend a one-chart seed form to a full connection.

    Walks a breadth-first spanning tree of the overlap graph rooted at
    the seed chart (children visited in sorted region order) and
    applies the transition law along each tree edge.  The child form is
    produced at every point where both the parent data and the pair's
    extended cocycle entry exist, so a seed carrying data beyond its
    own chart propagates to full charts.  Non-tree edges are then
    checked: a residual above ``TAU_GLUE`` anywhere means no connection
    extends the seed, reported as CycleInconsistencyError.

    The pointwise propagation mixes data across charts, which is only
    meaningful when the charts share coordinates; covers with
    non-identity overlap Jacobians are rejected.
    """
    chart0, w0 = seed
    cover = P.cover
    if chart0 not in cover.regions:
        raise MissingEntryError(f"seed chart {chart0!r} not in the cover")
    _require_shared_coordinates(cover)

    edges: dict[str, set[str]] = {r: set() for r in cover.regions}
    for a, b in P.overlap_graph_edges():
        edges[a].add(b)
        edges[b].add(a)

    big: dict[str, LieValuedOneForm] = {chart0: w0}
    queue = deque([chart0])
    while queue:
        a = queue.popleft()
        for b in sorted(edges[a]):
            if b not in big:
                big[b] = _propagate(P, a, b, big[a])
                queue.append(b)

    unreachable = set(cover.regions) - set(big)
    if unreachable:
        raise CoverError(
            f"overlap graph is disconnected; unreachable: {sorted(unreachable)}")

    forms = {}
    for rid in cover.region_ids():
        missing = cover.regions[rid] - big[rid].points
        if missing:
            raise MissingExtensionError(
                f"seed data does not determine the form on {rid!r} at "
                f"{point_order(missing)[:4]}; supply extended fields")
        forms[rid] = big[rid].restrict(cover.regions[rid]).relabel(rid)

    D = PrincipalConnection(forms)
    check_connection(P, D).require(CycleInconsistencyError,
                                   "propagated forms disagree around a cycle")
    return D


def _require_shared_coordinates(cover: SampledCover) -> None:
    for (a, b, p), j in cover.jacobians.items():
        if a != b and np.max(np.abs(j - np.eye(j.shape[0]))) > JACOBIAN_TOL:
            raise CoverError(
                "connection propagation needs charts with shared coordinates "
                f"(non-identity jacobian for ({a!r}, {b!r}))")


def _propagate(P: PrincipalSheafData, a: str, b: str,
               wa: LieValuedOneForm) -> LieValuedOneForm:
    gab = P.extended_entry(a, b)
    pts = wa.points & gab.points
    if not P.cover.regions[b] <= pts:
        miss = point_order(P.cover.regions[b] - pts)[:4]
        raise MissingExtensionError(
            f"cannot determine the form on {b!r} at {miss}: transition entry "
            f"({a!r}, {b!r}) or parent data not available there")
    return gauge_form(P.group, gab.restrict(pts), wa.restrict(pts), b)
