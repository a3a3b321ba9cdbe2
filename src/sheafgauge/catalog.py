"""Deterministic element catalogs and seeded random samplers.

The verification suites need concrete group elements, scalar fields and
sections to feed the identities.  Catalog elements are smooth closed
forms written in the expression language; random samplers draw
independent jets per point, which the pointwise identities must
tolerate just as well.  Randomness always flows through a caller-owned
generator so reports stay byte-reproducible.
"""

from __future__ import annotations

import zlib

import numpy as np

from .associated import AssociatedSection
from .cover import SampledCover
from .errors import DimensionMismatchError, MissingEntryError, ScenarioError
# eval_expr stays bound here: bench/tracing.py rebinds it in every module
# that holds it, and its self-test looks for it in this one.
from .expr import compile_exprs, eval_expr, parse_expr  # noqa: F401
from .groups import GroupModel
from .jets import (Jet, JetMatrix, MatrixField, ScalarField, _leibniz_matmul, jet_stack,
                   point_order)
from .principal import PrincipalSectionLocal, PrincipalSheafData


def stable_seed(name: str) -> int:
    """A reproducible RNG seed derived from a scenario name."""
    return zlib.crc32(name.encode("utf-8"))


def eval_matrix(rows, region: str, coords, points=None) -> MatrixField:
    """Evaluate a matrix of expression strings or trees over sample points.

    The entries are compiled once into one program (``compile_exprs``),
    so a subexpression shared by several entries is evaluated once per
    point; the program then runs at each point's first coordinate.  An
    entry that fails raises ExprDomainError at the first point, in
    ``points`` order, and at the first failing entry in row-major order.
    """
    parsed = [[parse_expr(e) if isinstance(e, str) else e for e in row]
              for row in rows]
    shape = (len(parsed), len(parsed[0]))
    if any(len(row) != shape[1] for row in parsed):
        raise DimensionMismatchError("expression matrix rows differ in length")
    program = compile_exprs([e for row in parsed for e in row])
    pts = list(coords.keys() if points is None else points)
    values, grads = [], []
    for p in pts:
        jets = program.run(float(np.atleast_1d(coords[p])[0]))
        values.append([j.value for j in jets])
        grads.append([j.grad_tuple for j in jets])
    v = np.array(values).reshape((-1,) + shape)
    g = np.array(grads).reshape((-1,) + shape + (1,)).transpose(0, 3, 1, 2)
    return MatrixField.from_stack(region, pts, jet_stack(v, g))


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


def random_element(model: GroupModel, cover: SampledCover, chart: str,
                   rng: np.random.Generator) -> MatrixField:
    """An invertible random element field of the modeled group.

    Values and gradients are drawn independently per point; each kind
    is sampled inside its own group (rotations stay rotations, diagonal
    elements stay diagonal) with gradients tangent to it.
    """
    pts = point_order(cover.regions[chart])
    dim = cover.dim(chart)
    kind = model.kind
    data = {}
    for p in pts:
        if kind == "so(2)":
            ang = rng.uniform(0.0, 2.0 * np.pi)
            speed = rng.uniform(-1.0, 1.0, size=dim)
            c, s = np.cos(ang), np.sin(ang)
            v = np.array([[c, -s], [s, c]])
            jmat = np.array([[-s, -c], [c, -s]])
            g = np.einsum("k,ij->kij", speed, jmat)
        elif kind == "gl1+":
            u = rng.uniform(-0.8, 0.8)
            v = np.array([[np.exp(u)]])
            g = rng.uniform(-1.0, 1.0, size=(dim, 1, 1))
        elif kind.startswith("torus("):
            n = model.ambient
            v = np.diag(rng.uniform(0.5, 2.0, size=n))
            g = np.zeros((dim, n, n))
            for i in range(n):
                g[:, i, i] = rng.uniform(-1.0, 1.0, size=dim)
        else:
            n = model.ambient
            v = np.eye(n) + rng.uniform(-0.25, 0.25, size=(n, n))
            g = rng.uniform(-0.5, 0.5, size=(dim, n, n))
        data[p] = JetMatrix(v, g)
    return MatrixField(chart, model.ambient, model.ambient, data)


def random_scalar_field(region: str, points, dim: int,
                        rng: np.random.Generator) -> ScalarField:
    """Independent random jets per point, values bounded away from huge."""
    data = {}
    for p in point_order(points):
        data[p] = Jet(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0, size=dim))
    return ScalarField(region, data)


def random_section(E: PrincipalSheafData, rng: np.random.Generator) -> AssociatedSection:
    """A random compatible section of a vector sheaf, given as its GL(n)
    frame data.

    Works point by point: among the charts containing a point, free
    data is drawn on the first one and carried to the others along a
    spanning tree of the transition entries at that point, v_b = g_ba v_a
    with v_a's gradient first rewritten in chart b's coordinates, as
    ``transport_field`` does.  Validity of the cocycle makes the
    remaining overlap relations hold to the same accuracy as the cocycle
    identities themselves.
    """
    cover = E.cover
    ids = cover.region_ids()
    n = E.group.ambient
    per_chart: dict[str, dict] = {rid: {} for rid in ids}
    for p in point_order(cover.points):
        charts = [r for r in ids if p in cover.regions[r]]
        base = charts[0]
        dim = cover.dim(base)
        # (value, gradient in the chart's own coordinates) per chart
        values = {base: (rng.uniform(-1.0, 1.0, size=(n, 1)),
                         rng.uniform(-1.0, 1.0, size=(dim, n, 1)))}
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
                if p not in gba.points:
                    continue
                m, (v, g) = gba.data[p], values[a]
                g = np.einsum("il,ikj->lkj", cover.jacobian(a, b, p), g)
                values[b] = _leibniz_matmul(m.value, m.grad, v, g)
                frontier.append(b)
        for rid, (v, g) in values.items():
            per_chart[rid][p] = JetMatrix(v, g)
    comps = {rid: MatrixField(rid, n, 1, data)
             for rid, data in per_chart.items() if data}
    return AssociatedSection(comps)


def random_principal_section(P: PrincipalSheafData, chart: str,
                             rng: np.random.Generator) -> PrincipalSectionLocal:
    """A random local section presented over one chart."""
    return PrincipalSectionLocal(chart, random_element(P.group, P.cover, chart, rng))
