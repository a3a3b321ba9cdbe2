"""Deterministic element catalogs and seeded random samplers.

The verification suites need concrete group elements, scalar fields and
sections to feed the identities.  Catalog elements are smooth closed
forms written in the expression language; random samplers draw
independent jets per point, which the pointwise identities must
tolerate just as well.  A sampler draws whole stacks, not point by
point: an element or scalar field one stack over its points, a section
one stack per set of charts that share its points, and each result
builds one ``Jet`` or ``JetMatrix`` per (chart, point).  Randomness
always flows through a caller-owned ``random.Random`` (the standard
library's Mersenne Twister, whose ``random()`` stream is the same on
every Python version), so reports stay byte-reproducible.
"""

from __future__ import annotations

import math
import random
import zlib

import numpy as np

from .associated import AssociatedSection
from .cover import SampledCover, _jacobians, _pull_axis
from .errors import DimensionMismatchError, MissingEntryError, ScenarioError
# eval_expr stays bound here: bench/tracing.py rebinds it in every module
# that holds it, and its self-test looks for it in this one.
from .expr import compile_exprs, eval_expr, parse_expr  # noqa: F401
from .groups import GroupModel
from .jets import MatrixField, ScalarField, _leibniz_matmul, jet_stack, point_order
from .principal import PrincipalSectionLocal, PrincipalSheafData


def stable_seed(name: str) -> int:
    """A reproducible RNG seed derived from a scenario name."""
    return zlib.crc32(name.encode("utf-8"))


def sample_values(coords, points) -> list[float]:
    """The sample value of each of ``points``, in order: the first
    coordinate in ``coords``, as a float."""
    return [float(np.atleast_1d(coords[p])[0]) for p in points]


def eval_matrix(rows, region: str, coords) -> MatrixField:
    """Evaluate a matrix of expression strings or trees over sample points.

    The entries are compiled once into one program (``compile_exprs``),
    so a subexpression shared by several entries is evaluated once per
    point.  The program runs once over the sample values of all points
    in ``point_order`` (``Program.run_points``), one instruction at a
    time, and its output columns are the field's stack.  An entry that
    fails raises ExprDomainError at the first failing point in
    ``point_order``, and at the first failing entry in row-major order.
    """
    parsed = [[parse_expr(e) if isinstance(e, str) else e for e in row]
              for row in rows]
    if not parsed or any(len(row) != len(parsed[0]) for row in parsed):
        raise DimensionMismatchError("expression matrix has no rows or rows differ in length")
    shape = (len(parsed), len(parsed[0]))
    program = compile_exprs([e for row in parsed for e in row])
    pts = point_order(coords)
    v, d = (np.moveaxis(np.reshape(columns, shape + (len(pts),)), -1, 0)
            for columns in program.run_points(sample_values(coords, pts)))
    return MatrixField.from_stack(region, pts, jet_stack(v, d[:, None]))


def _rotation_rows(angle_expr: str) -> list[list[str]]:
    return [[f"cos({angle_expr})", f"-sin({angle_expr})"],
            [f"sin({angle_expr})", f"cos({angle_expr})"]]


def catalog_rows(model: GroupModel) -> list[list[list[str]]]:
    """Closed-form invertible elements of each supported group kind."""
    kind = model.kind
    if kind in ("gl(1)", "gl1+"):
        return [[["2 + sin(t)"]], [["exp(sin(t))"]], [["1.5 + 0.5 * cos(t)"]]]
    if kind == "so(2)":
        return [_rotation_rows("t"), _rotation_rows("2 * t"),
                _rotation_rows("0.5 * t + 0.25")]
    if kind == "gl(2)":
        return [
            [["1", "t"], ["0", "1"]],
            [["2 + sin(t)", "0"], ["0", "1"]],
            _rotation_rows("t"),
            [["1", "0"], ["0.5 * cos(t)", "1"]],
        ]
    if kind.startswith("torus(") or kind.startswith("gl("):
        n = model.ambient
        pool = ["2 + sin(t)", "exp(sin(t))", "1.5 + 0.5 * cos(t)", "2 + cos(t)"]
        out = []
        for shift in range(3):
            rows = [["0"] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = pool[(i + shift) % len(pool)]
            out.append(rows)
        return out
    raise ScenarioError(f"no element catalog for group kind {kind!r}")


def catalog_elements(model: GroupModel, cover: SampledCover,
                     chart: str) -> list[MatrixField]:
    coords = cover.region_coords(chart)
    return [eval_matrix(rows, chart, coords) for rows in catalog_rows(model)]


def _uniform(rng: random.Random, lo: float, hi: float, shape: tuple) -> np.ndarray:
    """A float64 array of ``shape`` filled in C order by ``lo + (hi - lo) * u``,
    one ``rng.random()`` draw u per entry."""
    u = np.array([rng.random() for _ in range(math.prod(shape))])
    return (lo + (hi - lo) * u).reshape(shape)


def random_element(model: GroupModel, cover: SampledCover, chart: str,
                   rng: random.Random) -> MatrixField:
    """An invertible random element field of the modeled group.

    Values and gradients are drawn independently per point, as whole
    stacks over the chart's points in ``point_order``: the value
    parameters of all points, then the gradients.  Each kind is sampled
    inside its own group (rotations stay rotations, diagonal elements
    stay diagonal) with gradients tangent to it.
    """
    pts = point_order(cover.regions[chart])
    P, dim, n, kind = len(pts), cover.dim(chart), model.ambient, model.kind
    if kind == "so(2)":
        ang = _uniform(rng, 0.0, 2.0 * np.pi, (P,))
        speed = _uniform(rng, -1.0, 1.0, (P, dim))
        c, s = np.cos(ang), np.sin(ang)
        v = np.stack([c, -s, s, c], axis=1).reshape(P, 2, 2)
        tangent = np.stack([-s, -c, c, -s], axis=1).reshape(P, 1, 2, 2)
        g = speed[:, :, None, None] * tangent
    elif kind == "gl1+":
        v = np.exp(_uniform(rng, -0.8, 0.8, (P, 1, 1)))
        g = _uniform(rng, -1.0, 1.0, (P, dim, 1, 1))
    elif kind.startswith("torus("):
        v, g, diag = np.zeros((P, n, n)), np.zeros((P, dim, n, n)), np.arange(n)
        v[:, diag, diag] = _uniform(rng, 0.5, 2.0, (P, n))
        g[..., diag, diag] = _uniform(rng, -1.0, 1.0, (P, dim, n))
    else:
        v = np.eye(n) + _uniform(rng, -0.25, 0.25, (P, n, n))
        g = _uniform(rng, -0.5, 0.5, (P, dim, n, n))
    return MatrixField.from_stack(chart, pts, jet_stack(v, g))


def random_scalar_field(region: str, points, dim: int,
                        rng: random.Random) -> ScalarField:
    """Independent random jets per point, values bounded away from huge:
    the values of all points in ``point_order``, then their gradients."""
    pts = point_order(points)
    values = _uniform(rng, -2.0, 2.0, (len(pts), 1))
    grads = _uniform(rng, -2.0, 2.0, (len(pts), dim))
    return ScalarField.from_stack(region, pts, np.concatenate((values, grads), axis=1))


def random_section(E: PrincipalSheafData, rng: random.Random) -> AssociatedSection:
    """A random compatible section of a vector sheaf, given as its GL(n)
    frame data.

    The points are grouped by the charts that contain them, and each
    group is drawn as one stack: free data on the group's first chart,
    values for all its points and then gradients, carried to the other
    charts along a spanning tree of the transition entries between
    them, v_b = g_ba v_a with v_a's gradient first rewritten in chart
    b's coordinates, as ``transport_field`` does.  Groups are
    drawn in the order of their first point in ``point_order``.
    Validity of the cocycle makes the remaining overlap relations hold
    to the same accuracy as the cocycle identities themselves.
    """
    cover = E.cover
    ids = cover.region_ids()
    n = E.group.ambient
    groups: dict[tuple, list] = {}
    for p in point_order(cover.points):
        groups.setdefault(tuple(r for r in ids if p in cover.regions[r]), []).append(p)
    pieces: dict[str, list] = {rid: [] for rid in ids}   # (points, jet stack)
    for charts, pts in groups.items():
        base = charts[0]
        G, dim = len(pts), cover.dim(base)
        # (value, gradient in the chart's own coordinates) stacks per chart
        values = {base: (_uniform(rng, -1.0, 1.0, (G, n, 1)),
                         _uniform(rng, -1.0, 1.0, (G, dim, n, 1)))}
        frontier = [base]
        while frontier:
            a = frontier.pop(0)
            for b in charts:
                if b in values:
                    continue
                try:
                    gba = E.entry(b, a)
                except MissingEntryError:
                    continue
                m, (v, g) = gba.restrict(pts).coeffs, values[a]
                g = _pull_axis(g, _jacobians(cover, a, b, pts))
                values[b] = _leibniz_matmul(m[:, 0], m[:, 1:], v, g)
                frontier.append(b)
        for rid, (v, g) in values.items():
            pieces[rid].append((pts, jet_stack(v, g)))
    comps = {}
    for rid, parts in pieces.items():
        if parts:
            pts = [p for group_pts, _ in parts for p in group_pts]
            rows = sorted(range(len(pts)), key=lambda i: str(pts[i]))   # point_order
            stack = np.concatenate([c for _, c in parts])[rows]
            comps[rid] = MatrixField.from_stack(rid, [pts[i] for i in rows], stack)
    return AssociatedSection(comps)


def random_principal_section(P: PrincipalSheafData, chart: str,
                             rng: random.Random) -> PrincipalSectionLocal:
    """A random local section presented over one chart."""
    return PrincipalSectionLocal(chart, random_element(P.group, P.cover, chart, rng))
