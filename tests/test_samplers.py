"""The seeded samplers: reproducible stacks that stay in their group.

``random_element``, ``random_scalar_field`` and ``random_section`` draw
whole stacks from a ``random.Random`` and build one ``Jet`` or
``JetMatrix`` per (chart, point).  The run-wide guard at the end checks
that no report loads ``numpy.random``.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import stacked
from sheafgauge import (
    Jet,
    JetMatrix,
    MatrixField,
    PrincipalSheafData,
    SampledCover,
    check_cocycle,
    check_components,
    gl_model,
    gl1_positive_model,
    mat_inv,
    mat_mul,
    random_element,
    random_scalar_field,
    random_section,
    so2_model,
    torus_model,
)
from sheafgauge.cover import TAU_GLUE

SRC = Path(__file__).resolve().parent.parent / "src"


def plane_cover(n_points=7):
    """One chart with two coordinates, so gradients have two directions."""
    pts = range(n_points)
    return SampledCover(pts, {"u": pts}, {("u", p): [p / 7, (p / 7) ** 2] for p in pts})


SCALE = {"alpha": 1.0, "beta": 2.0, "gamma": -0.5}
PHASE = {"alpha": 0.0, "beta": 1.0, "gamma": 2.0}


def long_arcs_cover():
    """96 circle points under the arcs alpha 0..63, beta 32..95 and
    gamma 64..47 (wrapping), all three sharing 32..47.  Chart c's
    coordinate is SCALE[c] times the angle t."""
    arcs = {"alpha": range(0, 64), "beta": range(32, 96),
            "gamma": list(range(64, 96)) + list(range(0, 48))}
    coords = {(c, p): [SCALE[c] * 2 * np.pi * p / 96] for c, pts in arcs.items() for p in pts}
    jac = {(a, b, p): [[SCALE[a] / SCALE[b]]]
           for a in arcs for b in arcs for p in set(arcs[a]) & set(arcs[b])}
    return SampledCover(range(96), arcs, coords, jac)


def frame(chart, phase, points):
    """h(t) = [[2 + sin(t + phase), cos t], [0, 1.5 + 0.5 cos(t + phase)]],
    its gradient taken in the coordinate of ``chart``."""
    out = {}
    for p in points:
        t = 2 * np.pi * p / 96
        v = [[2 + np.sin(t + phase), np.cos(t)], [0.0, 1.5 + 0.5 * np.cos(t + phase)]]
        dv = [[np.cos(t + phase), -np.sin(t)], [0.0, -0.5 * np.sin(t + phase)]]
        out[p] = JetMatrix(v, [np.array(dv) / SCALE[chart]])
    return stacked(MatrixField, chart, out)


def long_arcs_bundle():
    """A gl(2) cocycle g_ab = h_a h_b^-1 on ``long_arcs_cover``, so the
    triple identity holds up to rounding."""
    cover = long_arcs_cover()
    entries = {}
    for a, b in cover.overlap_pairs():
        ov = cover.overlap_points(a, b)
        entries[(a, b)] = mat_mul(frame(a, PHASE[a], ov), mat_inv(frame(a, PHASE[b], ov)))
    return PrincipalSheafData.from_pairs(cover, gl_model(2), entries)


@pytest.fixture
def constructed(monkeypatch):
    """Counts of Jet and JetMatrix constructions from here on."""
    counts = {Jet: 0, JetMatrix: 0}
    for cls in counts:
        def counting(self, *args, _cls=cls, _init=cls.__init__):
            counts[_cls] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def draw(kind, rng):
    cover = plane_cover()
    if kind == "section":
        return random_section(long_arcs_bundle(), rng)
    if kind == "scalar":
        return random_scalar_field("u", cover.points, 2, rng)
    return random_element(kind, cover, "u", rng)


def stacks(x):
    comps = x.components if hasattr(x, "components") else {"": x}
    return [comps[c].coeffs.tobytes() for c in sorted(comps)]


SAMPLERS = [so2_model(), gl1_positive_model(), torus_model(3), gl_model(2), "scalar", "section"]
IDS = ["so2", "gl1+", "torus3", "gl2", "scalar", "section"]


class TestReproducible:
    @pytest.mark.parametrize("kind", SAMPLERS, ids=IDS)
    def test_same_seed_same_bytes(self, kind):
        assert stacks(draw(kind, random.Random(3))) == stacks(draw(kind, random.Random(3)))

    @pytest.mark.parametrize("kind", SAMPLERS, ids=IDS)
    def test_continued_generator_draws_anew(self, kind):
        rng = random.Random(3)
        first, second = stacks(draw(kind, rng)), stacks(draw(kind, rng))
        assert all(a != b for a, b in zip(first, second))


class TestStaysInGroup:
    def test_so2_rotations_with_tangent_gradients(self):
        f = random_element(so2_model(), plane_cover(), "u", random.Random(1))
        v, g = f.coeffs[:, 0], f.coeffs[:, 1:]
        vt = v.transpose(0, 2, 1)
        assert np.max(np.abs(vt @ v - np.eye(2))) <= 1e-15
        assert np.max(np.abs(np.linalg.det(v) - 1.0)) <= 1e-15
        skew = vt[:, None] @ g
        assert np.max(np.abs(skew + skew.transpose(0, 1, 3, 2))) <= 1e-15

    def test_torus_is_diagonal_exactly(self):
        f = random_element(torus_model(3), plane_cover(), "u", random.Random(1))
        off = ~np.eye(3, dtype=bool)
        assert not f.coeffs[:, :, off].any()
        assert (np.diagonal(f.coeffs[:, 0], axis1=1, axis2=2) > 0).all()

    def test_gl1_positive_values(self):
        f = random_element(gl1_positive_model(), plane_cover(), "u", random.Random(1))
        assert (f.coeffs[:, 0] > 0).all()


class TestOneObjectPerPoint:
    @pytest.mark.parametrize("model", SAMPLERS[:4], ids=IDS[:4])
    def test_element(self, model, constructed):
        cover = plane_cover()
        f = random_element(model, cover, "u", random.Random(2))
        assert constructed == {Jet: 0, JetMatrix: len(cover.points)}
        assert all(type(m) is JetMatrix for m in f.data.values())

    def test_scalar_field(self, constructed):
        f = random_scalar_field("u", range(9), 2, random.Random(2))
        assert constructed == {Jet: 9, JetMatrix: 0}
        assert all(type(j) is Jet for j in f.data.values())

    def test_section(self, constructed):
        E = long_arcs_bundle()
        before = dict(constructed)
        s = random_section(E, random.Random(2))
        assert set(s.components) == set(E.cover.regions)
        assert constructed[Jet] == before[Jet]
        assert constructed[JetMatrix] - before[JetMatrix] == sum(
            len(pts) for pts in E.cover.regions.values())


def test_section_on_three_arcs_with_a_triple_overlap():
    E = long_arcs_bundle()
    assert all(r.passed for r in check_cocycle(E).values())
    s = random_section(E, random.Random(0))
    for c, comp in s.components.items():
        assert comp.ordered_points() == list(comp.data) == sorted(E.cover.regions[c], key=str)
    assert check_components(E, s.components).residual <= TAU_GLUE


def test_reports_do_not_load_numpy_random():
    # a fresh interpreter: other tests' imports would otherwise leak in
    code = ("import sys\n"
            "from sheafgauge import load_demo, run_checks\n"
            "for demo in ('mobius', 'so2', 'shear-frame'):\n"
            "    run_checks(load_demo(demo), 'all')\n"
            "assert 'numpy.random' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
