"""Finite sampled covers of a base space.

A ``SampledCover`` is a finite point set, a family of named regions
covering it, chart coordinates per region, and overlap Jacobians that
relate the charts.  Jacobian entries are indexed (a, b, p) and hold
d(coords of a)/d(coords of b) at p, so they satisfy the chain rule
J_ab J_bc = J_ac on triple overlaps and J_aa = I; this is validated at
construction for every entry supplied.

Gradients and one-form coefficients transform the same way under a
chart change (both are coefficients of differentials), which is why
``transport_field`` and ``transport_form`` share their core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    CoverError,
    FieldMismatchError,
    MissingJacobianError,
    OverlapMismatchError,
    UnknownRegionError,
)
from .jets import (
    Jet,
    JetMatrix,
    MatrixField,
    _FieldBase,
    _entry_diff,
    point_order,
    stack_arrays,
    stack_grads,
)

JACOBIAN_TOL = 1e-12
TAU_GLUE = 1e-9


@dataclass(frozen=True)
class Region:
    name: str
    points: frozenset

    def __len__(self):
        return len(self.points)


class SampledCover:
    """Point set, covering regions, chart coordinates, overlap Jacobians."""

    def __init__(self, points: Iterable, regions: Mapping[str, Iterable],
                 coords: Mapping, jacobians: Mapping | None = None,
                 tol: float = JACOBIAN_TOL):
        self.points = frozenset(points)
        if not self.points:
            raise CoverError("cover needs at least one point")
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
            self._dims[rid] = a.size
            a.setflags(write=False)
            self.coords[(rid, p)] = a
        for rid, pts in self.regions.items():
            missing = {p for p in pts if (rid, p) not in self.coords}
            if missing:
                raise CoverError(
                    f"region {rid!r} lacks coordinates at {point_order(missing)[:4]}")

        self.jacobians: dict[tuple, np.ndarray] = {}
        for (a, b, p), m in dict(jacobians or {}).items():
            a, b = str(a), str(b)
            j = np.asarray(m, dtype=float)
            if a not in self.regions or b not in self.regions:
                raise UnknownRegionError(f"jacobian for unknown region pair ({a}, {b})")
            if p not in self.overlap_points(a, b):
                raise CoverError(f"jacobian at {p!r} outside overlap of {a!r}, {b!r}")
            if j.shape != (self._dims[a], self._dims[b]):
                raise CoverError(f"jacobian shape {j.shape} wrong for ({a}, {b})")
            j.setflags(write=False)
            self.jacobians[(a, b, p)] = j
        self._validate_jacobians(tol)

    def _validate_jacobians(self, tol: float) -> None:
        for (a, b, p), j in self.jacobians.items():
            if a == b:
                if np.max(np.abs(j - np.eye(j.shape[0]))) > tol:
                    raise CoverError(f"jacobian ({a}, {a}) at {p!r} is not the identity")
            elif abs(np.linalg.det(j)) < 1e-12:
                raise CoverError(f"jacobian ({a}, {b}) at {p!r} is singular")
        # chain rule on whatever triples are present
        for (a, b, p), jab in self.jacobians.items():
            for c in self.regions:
                jbc = self.jacobians.get((b, c, p))
                jac = self.jacobians.get((a, c, p))
                if jbc is not None and jac is not None:
                    if np.max(np.abs(jab @ jbc - jac)) > tol:
                        raise CoverError(
                            f"jacobian chain rule fails for ({a}, {b}, {c}) at {p!r}")

    def region(self, rid: str) -> Region:
        if rid not in self.regions:
            raise UnknownRegionError(f"unknown region {rid!r}")
        return Region(rid, self.regions[rid])

    def region_ids(self) -> list[str]:
        return sorted(self.regions)

    def dim(self, rid: str) -> int:
        if rid not in self._dims:
            raise UnknownRegionError(f"unknown region {rid!r}")
        return self._dims[rid]

    def coord(self, rid: str, p) -> np.ndarray:
        try:
            return self.coords[(rid, p)]
        except KeyError:
            raise UnknownRegionError(f"no coordinates for ({rid!r}, {p!r})") from None

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


def overlap(cover: SampledCover, a: str, b: str) -> Region:
    return Region(f"{a}&{b}", cover.overlap_points(a, b))


def restrict(f: _FieldBase, r) -> _FieldBase:
    """Restrict a field to a sub-point-set (Region or iterable of points)."""
    pts = r.points if isinstance(r, Region) else frozenset(r)
    return f.restrict(pts)


def glue(pieces: Mapping[str, _FieldBase], tol: float = TAU_GLUE) -> _FieldBase:
    """Join fields that agree on shared points into one field on the union.

    Raises OverlapMismatchError naming the first offending pair and point
    when two pieces deviate by more than ``tol`` somewhere they both live.
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
            fa, fb = pieces[la], pieces[lb]
            shared = fa.points & fb.points
            for p in point_order(shared):
                d = _entry_diff(fa.data[p], fb.data[p])
                if d > tol:
                    raise OverlapMismatchError(
                        f"glue pieces {la!r} and {lb!r} differ by {d:.3e} at {p!r}",
                        region_a=la, region_b=lb, point=p, residual=d)
    merged = {}
    for lab in labels:
        for p, v in pieces[lab].data.items():
            merged.setdefault(p, v)
    return first._replace("+".join(labels), merged)


def _pull_axis(arr: np.ndarray, jac: np.ndarray) -> np.ndarray:
    # coefficients of differentials, point by point:
    # new[p, l] = sum_i J[p, i, l] old[p, i]
    return np.einsum("pil,pi...->pl...", jac, arr)


def _jacobians(cover: SampledCover, src: str, to: str, points) -> np.ndarray:
    return np.array([cover.jacobian(src, to, p) for p in points])


def transport_form(form, cover: SampledCover, to: str):
    """Rewrite one-form coefficients in the coordinates of chart ``to``.

    Works on OneForm, MatrixOneForm and any field whose per-point data is
    an array with the chart-direction axis first.  The form must live on
    points of the overlap between its own chart and ``to``.
    """
    src = form.region
    if src == to:
        return form
    pts = form.ordered_points()
    if not pts:
        return form._replace(to, {})
    coeffs = _pull_axis(stack_arrays(form, pts, ()), _jacobians(cover, src, to, pts))
    return form._replace(to, dict(zip(pts, coeffs)))


def transport_field(field, cover: SampledCover, to: str):
    """Rewrite jet gradients of a scalar or matrix field in chart ``to``."""
    src = field.region
    if src == to:
        return field
    pts = field.ordered_points()
    if not pts:
        return field._replace(to, {})
    jac = _jacobians(cover, src, to, pts)
    if isinstance(field, MatrixField):
        grads = _pull_axis(stack_grads(field, pts), jac)
        data = {p: JetMatrix(field.data[p].value, g) for p, g in zip(pts, grads)}
    else:
        grads = _pull_axis(np.array([field.data[p].grad_tuple for p in pts]), jac)
        data = {p: Jet(field.data[p].value, g) for p, g in zip(pts, grads.tolist())}
    return field._replace(to, data)


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
