"""Finite sampled covers of a base space.

A ``SampledCover`` is a finite point set, a family of named regions
covering it, chart coordinates per region, and overlap Jacobians that
relate the charts.  Jacobian entries are indexed (a, b, p) and hold
d(coords of a)/d(coords of b) at p, so they satisfy the chain rule
J_ab J_bc = J_ac on triple overlaps and J_aa = I; this is validated at
construction for every entry supplied, after every coordinate and
Jacobian entry has been checked finite in the order supplied.

Gradients and one-form coefficients transform the same way under a
chart change (both are coefficients of differentials), which is why
``transport_field`` and ``transport_form`` share their core.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .errors import (
    CoverError,
    DimensionMismatchError,
    FieldMismatchError,
    MissingJacobianError,
    OverlapMismatchError,
    UnknownRegionError,
)
from .jets import _StackedField, _all_finite, determinants, diff_rows, first_true, point_order

JACOBIAN_TOL = 1e-12
# An overlap Jacobian whose determinant is smaller in magnitude is singular.
JACOBIAN_DET_FLOOR = 1e-12
TAU_GLUE = 1e-9


class SampledCover:
    """Point set, covering regions, chart coordinates, overlap Jacobians."""

    def __init__(self, points: Iterable, regions: Mapping[str, Iterable],
                 coords: Mapping, jacobians: Mapping | None = None):
        self.points = frozenset(points)
        if not self.points:
            raise CoverError("cover needs at least one point")
        if len(set(map(str, self.points))) < len(self.points):
            raise CoverError("cover points must differ in their string forms, which reports print")
        self.regions: dict[str, frozenset] = {
            str(r): frozenset(pts) for r, pts in regions.items()}

        stray = set().union(*self.regions.values()) - self.points
        if stray:
            raise CoverError(f"region points outside the cover: {point_order(stray)[:4]}")
        uncovered = self.points - set().union(*self.regions.values())
        if uncovered:
            raise CoverError(f"points in no region: {point_order(uncovered)[:4]}")

        self.coords: dict[tuple, np.ndarray] = {}
        self._dims: dict[str, int] = {}
        for (rid, p), c in dict(coords).items():
            rid = str(rid)
            if rid not in self.regions:
                raise UnknownRegionError(f"coords given for unknown region {rid!r}")
            if p not in self.regions[rid]:
                raise CoverError(f"coords for point {p!r} outside region {rid!r}")
            a = np.atleast_1d(np.asarray(c, dtype=float))
            if rid in self._dims and self._dims[rid] != a.size:
                raise CoverError(f"inconsistent chart dimension in region {rid!r}")
            if not _all_finite(a):
                raise CoverError(f"coords of region {rid!r} at {p!r} must be finite")
            self._dims[rid] = a.size
            a.setflags(write=False)
            self.coords[(rid, p)] = a
        for rid, pts in self.regions.items():
            missing = {p for p in pts if (rid, p) not in self.coords}
            if missing:
                raise CoverError(
                    f"region {rid!r} lacks coordinates at {point_order(missing)[:4]}")

        self.jacobians: dict[tuple, np.ndarray] = {}
        overlaps: dict[tuple, frozenset] = {}    # each pair's overlap, built once
        for (a, b, p), m in dict(jacobians or {}).items():
            a, b = str(a), str(b)
            j = np.asarray(m, dtype=float)
            if a not in self.regions or b not in self.regions:
                raise UnknownRegionError(f"jacobian for unknown region pair ({a}, {b})")
            if (a, b) not in overlaps:
                overlaps[(a, b)] = self.overlap_points(a, b)
            if p not in overlaps[(a, b)]:
                raise CoverError(f"jacobian at {p!r} outside overlap of {a!r}, {b!r}")
            if j.shape != (self._dims[a], self._dims[b]):
                raise CoverError(f"jacobian shape {j.shape} wrong for ({a}, {b})")
            if not _all_finite(j):
                raise CoverError(f"jacobian ({a}, {b}) at {p!r} must be finite")
            j.setflags(write=False)
            self.jacobians[(a, b, p)] = j
        self._validate_jacobians()

    def _validate_jacobians(self) -> None:
        """Identity on the diagonal, invertible off it, and the chain rule.

        Each check runs once per region pair over the stack of its
        entries.  The first failure raises: every identity and
        singularity check comes before the chain rule, and within each
        kind entries are taken in the order they were supplied, the
        third region in region order.
        """
        order = {key: i for i, key in enumerate(self.jacobians)}
        by_pair: dict[tuple, list] = {}
        for a, b, p in self.jacobians:
            by_pair.setdefault((a, b), []).append(p)

        def stack(a, b, pts):
            return np.array([self.jacobians[(a, b, p)] for p in pts])

        fails = []                       # ((entry index, region rank), message)
        for (a, b), pts in by_pair.items():
            j = stack(a, b, pts)
            if a == b:
                k = first_true(np.max(np.abs(j - np.eye(j.shape[1])),
                                      axis=(1, 2), initial=0.0) > JACOBIAN_TOL)
                what = "is not the identity"
            else:
                k = first_true(np.abs(determinants(j)) < JACOBIAN_DET_FLOOR)
                what = "is singular"
            if k < len(pts):
                fails.append(((order[(a, b, pts[k])], 0),
                              f"jacobian ({a}, {b}) at {pts[k]!r} {what}"))
        if fails:
            raise CoverError(min(fails)[1])
        # chain rule on whatever triples are present
        for (a, b), pts in by_pair.items():
            for rank, c in enumerate(self.regions):
                trip = [p for p in pts
                        if (b, c, p) in self.jacobians and (a, c, p) in self.jacobians]
                if not trip:
                    continue
                gap = stack(a, b, trip) @ stack(b, c, trip) - stack(a, c, trip)
                k = first_true(np.max(np.abs(gap), axis=(1, 2),
                                      initial=0.0) > JACOBIAN_TOL)
                if k < len(trip):
                    fails.append(((order[(a, b, trip[k])], rank),
                                  f"jacobian chain rule fails for ({a}, {b}, {c}) at {trip[k]!r}"))
        if fails:
            raise CoverError(min(fails)[1])

    def region_ids(self) -> list[str]:
        return sorted(self.regions)

    def dim(self, rid: str) -> int:
        if rid not in self._dims:
            raise UnknownRegionError(f"unknown region {rid!r}")
        return self._dims[rid]

    def region_coords(self, rid: str) -> dict:
        return {p: self.coords[(rid, p)] for p in self.regions[rid]}

    def overlap_points(self, a: str, b: str) -> frozenset:
        if a not in self.regions or b not in self.regions:
            raise UnknownRegionError(f"unknown region in pair ({a!r}, {b!r})")
        return self.regions[a] & self.regions[b]

    def jacobian(self, a: str, b: str, p) -> np.ndarray:
        j = self.jacobians.get((str(a), str(b), p))
        if j is None:
            if a == b:
                return np.eye(self._dims[str(a)])
            raise MissingJacobianError(f"no jacobian entry for ({a!r}, {b!r}) at {p!r}")
        return j

    def overlap_pairs(self) -> list[tuple[str, str]]:
        """Unordered region pairs with nonempty overlap, lexicographic."""
        ids = self.region_ids()
        out = []
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if self.overlap_points(a, b):
                    out.append((a, b))
        return out


def glue(pieces: Mapping[str, _StackedField]) -> _StackedField:
    """Join fields that agree on shared points into one field on the union.

    Raises OverlapMismatchError naming the first offending pair and point
    when two pieces deviate by more than ``TAU_GLUE`` somewhere they both
    live.  Each point's row, and for jet fields its object, comes from the
    first piece in sorted label order that holds it; pieces with no points
    give an empty field with the first piece's row shape.
    """
    if not pieces:
        raise FieldMismatchError("nothing to glue")
    labels = sorted(pieces, key=str)
    first = pieces[labels[0]]
    for lab in labels[1:]:
        if type(pieces[lab]) is not type(first):
            raise FieldMismatchError("glue pieces must share one field kind")
    for i, la in enumerate(labels):
        for lb in labels[i + 1:]:
            shared = pieces[la].points & pieces[lb].points
            for p, d in diff_rows(pieces[la].restrict(shared), pieces[lb].restrict(shared)):
                if d > TAU_GLUE:
                    raise OverlapMismatchError(
                        f"glue pieces {la!r} and {lb!r} differ by {d:.3e} at {p!r}",
                        region_a=la, region_b=lb, point=p, residual=d)
    source = {}                     # point -> (first piece holding it, its row there)
    for lab in labels:
        for i, p in enumerate(pieces[lab].data):
            source.setdefault(p, (pieces[lab], i))
    order = point_order(source)
    first._check_points(order)
    held = [pieces[lab] for lab in labels if len(pieces[lab])]
    for f in held[1:]:
        if f.coeffs.shape[1:] != held[0].coeffs.shape[1:]:
            raise DimensionMismatchError(f.MISMATCH_MESSAGE.format(a=held[0], b=f))
    taken = [source[p] for p in order]
    stack = np.array([f.coeffs[i] for f, i in taken]) if taken else first.coeffs
    kept = first._kept(f.data[p] for p, (f, _) in zip(order, taken))
    return object.__new__(type(first))._checked("+".join(labels), order, stack, kept)


def _pull_axis(arr: np.ndarray, jac: np.ndarray) -> np.ndarray:
    # coefficients of differentials, point by point:
    # new[p, l] = sum_i J[p, i, l] old[p, i]
    return np.einsum("pil,pi...->pl...", jac, arr)


def _jacobians(cover: SampledCover, src: str, to: str, points) -> np.ndarray:
    return np.array([cover.jacobian(src, to, p) for p in points])


def transport_form(form, cover: SampledCover, to: str):
    """Rewrite one-form coefficients in the coordinates of chart ``to``.

    Works on every form kind: the chart-direction axis of ``coeffs`` is
    the one rewritten.  The form must live on points of the overlap
    between its own chart and ``to``.
    """
    return _transport(form, cover, to)


def transport_field(field, cover: SampledCover, to: str):
    """Rewrite jet gradients of a scalar or matrix field in chart ``to``;
    the values and the row order stay."""
    return _transport(field, cover, to)


def _transport(f, cover: SampledCover, to: str):
    if f.region == to:
        return f
    if not len(f):
        return f.relabel(to)
    c, k = f.coeffs, f.LEAD
    jac = _jacobians(cover, f.region, to, list(f.data))
    pulled = np.concatenate((c[:, :k], _pull_axis(c[:, k:], jac)), axis=1)
    return type(f)._on_points_of(f, pulled, to)


def circle_cover(n_points: int, arcs: Mapping[str, Iterable[int]]) -> SampledCover:
    """Equally spaced circle samples covered by index arcs.

    ``arcs`` maps region ids to point index collections (use
    ``arc_range`` for inclusive wraparound ranges).  Every region uses
    the common angle coordinate t_k = 2 pi k / n, so all overlap
    Jacobians are the 1x1 identity.
    """
    if n_points < 1:
        raise CoverError("circle needs at least one point")
    points = range(n_points)
    regions = {rid: [int(k) % n_points for k in pts] for rid, pts in arcs.items()}
    coords = {}
    for rid, pts in regions.items():
        for k in pts:
            coords[(rid, k)] = [2.0 * np.pi * k / n_points]
    jacobians = {}
    ids = sorted(regions)
    eye = np.eye(1)
    for a in ids:
        for b in ids:
            for p in set(regions[a]) & set(regions[b]):
                jacobians[(a, b, p)] = eye
    return SampledCover(points, regions, coords, jacobians)


def arc_range(start: int, stop: int, n: int) -> list[int]:
    """Inclusive circular index range; wraps around when stop < start."""
    start %= n
    stop %= n
    if stop >= start:
        return list(range(start, stop + 1))
    return list(range(start, n)) + list(range(0, stop + 1))
