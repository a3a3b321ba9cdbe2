"""Principal data: cocycles, local sections, connections."""

import random

import numpy as np
import pytest

from sheafgauge import (
    CoverError,
    CycleInconsistencyError,
    EmptyOverlapError,
    JetMatrix,
    LieValuedOneForm,
    MissingEntryError,
    MissingExtensionError,
    PrincipalConnection,
    PrincipalSectionLocal,
    PrincipalSheafData,
    arc_range,
    check_cocycle,
    check_connection,
    circle_cover,
    complete_connection,
    gauge_form,
    gl1_positive_model,
    gl_model,
    group_mul,
    mat_inv,
    mc,
    parse_scenario,
    SampledCover,
    random_element,
    random_principal_section,
    rho_dot_form,
    section_transition,
    so2_model,
    transport_form,
)
from conftest import trivial_principal
from helpers import coord, map_entries, stacked
from sheafgauge.scenario import build_cover, build_group, build_principal, build_seed


SCN_TWO_ARC = """\
name = tester
[space]
points = 12
region alpha = 0 .. 7
region beta  = 6 .. 1
[group]
kind = {kind}
[cocycle alpha beta]
{rows}
"""


def two_arc_principal(kind, rows):
    text = SCN_TWO_ARC.format(kind=kind, rows=rows)
    scn = parse_scenario(text)
    cover = build_cover(scn)
    group = build_group(scn)
    return scn, cover, group, build_principal(scn, cover, group)


def one_directional_principal() -> PrincipalSheafData:
    """Two arcs of a six-point circle whose cocycle holds (a, b) but not (b, a)."""
    cover = circle_cover(6, {"a": arc_range(0, 3, 6), "b": arc_range(3, 0, 6)})
    model = gl_model(1)
    cocycle = {(r, r): model.unit_field(r, cover.regions[r], 1) for r in "ab"}
    cocycle[("a", "b")] = model.unit_field("a", cover.overlap_points("a", "b"), 1)
    return PrincipalSheafData(cover, model, cocycle)


def zero_forms(cover, charts, rank) -> PrincipalConnection:
    return PrincipalConnection({
        rid: stacked(LieValuedOneForm, rid, {p: np.zeros((1, rank)) for p in cover.regions[rid]})
        for rid in charts})


class TestCocycle:
    def test_identity_cocycle_exact_zero(self, cover12):
        P = trivial_principal(cover12, gl_model(2))
        parts = check_cocycle(P)
        assert all(r.residual == 0.0 for r in parts.values())

    def test_mobius_constant_cocycle_exact_zero(self, mobius_pipe):
        parts = check_cocycle(mobius_pipe.P)
        assert parts["unit"].residual == 0.0
        assert parts["inverse"].residual == 0.0
        assert parts["triple"].residual == 0.0

    def test_demo_cocycles_pass(self, pipeline):
        parts = check_cocycle(pipeline.P)
        assert all(r.passed for r in parts.values())

    def test_corruption_detected_at_point(self, so2_pipe):
        P = so2_pipe.P
        bad_point = sorted(P.cover.overlap_points("alpha", "beta"))[0]
        entry = P.cocycle[("alpha", "beta")]
        bumped = map_entries(
            entry,
            lambda p, m: JetMatrix(m.value + (1e-3 if p == bad_point else 0.0),
                                   m.grad))
        cocycle = dict(P.cocycle)
        cocycle[("alpha", "beta")] = bumped
        corrupted = PrincipalSheafData(P.cover, P.group, cocycle, P.ext)
        parts = check_cocycle(corrupted)
        assert not parts["inverse"].passed
        assert parts["inverse"].residual >= 5e-4
        assert parts["inverse"].worst_point == bad_point

    def test_reversed_entries_synthesized(self, so2_pipe):
        P = so2_pipe.P
        ab = P.entry("alpha", "beta")
        ba = P.entry("beta", "alpha")
        prod = ab.data[0].matmul(ba.data[0])
        assert prod.max_abs_diff(JetMatrix.constant(np.eye(2), 1)) <= 1e-12

    def test_diagonal_is_unit(self, so2_pipe):
        e = so2_pipe.P.entry("alpha", "alpha")
        for p in e.data:
            assert e.data[p].max_abs_diff(JetMatrix.constant(np.eye(2), 1)) == 0.0

    def test_one_directional_cocycle_raises_a_package_error(self):
        P = one_directional_principal()
        with pytest.raises(MissingEntryError, match=r"^no cocycle entry for \('b', 'a'\)$"):
            check_cocycle(P)


class TestSectionTransition:
    def test_same_chart_restricts_only(self, so2_pipe):
        rng = random.Random(1)
        s = random_principal_section(so2_pipe.P, "alpha", rng)
        t = section_transition(so2_pipe.P, s, "alpha")
        assert t.chart == "alpha" and t.points == s.points

    def test_identity_cocycle_keeps_factor(self, cover12):
        model = gl_model(2)
        P = trivial_principal(cover12, model)
        rng = random.Random(2)
        s = random_principal_section(P, "alpha", rng)
        t = section_transition(P, s, "beta")
        for p in t.points:
            assert t.factor.data[p].max_abs_diff(s.factor.data[p]) == 0.0

    def test_so2_factor_rotates_backwards(self, so2_pipe):
        # g_beta = g_{beta alpha} g_alpha = R(-t) g_alpha on the overlap
        P = so2_pipe.P
        e = P.group.unit_field("alpha", P.cover.regions["alpha"], 1)
        s = PrincipalSectionLocal("alpha", e)
        t = section_transition(P, s, "beta")
        for p in t.points:
            ang = float(coord(P.cover, "beta", p)[0])
            want = np.array([[np.cos(ang), np.sin(ang)],
                             [-np.sin(ang), np.cos(ang)]])
            assert np.max(np.abs(t.factor.data[p].value - want)) <= 1e-12

    def test_empty_overlap_rejected(self, mobius_pipe):
        P = mobius_pipe.P
        # alpha and gamma share points 0, 1 only; restrict away from them
        inner = [p for p in P.cover.regions["alpha"]
                 if p not in P.cover.regions["gamma"]]
        e = P.group.unit_field("alpha", inner, 1)
        with pytest.raises(EmptyOverlapError):
            section_transition(P, PrincipalSectionLocal("alpha", e), "gamma")


class TestCheckConnection:
    def test_trivial_cocycle_equal_constant_forms(self, cover12):
        model = so2_model()
        P = trivial_principal(cover12, model)
        forms = {rid: stacked(LieValuedOneForm, rid, {p: [[0.7]]
                                                      for p in cover12.regions[rid]})
                 for rid in cover12.region_ids()}
        assert check_connection(P, PrincipalConnection(forms)).residual == 0.0

    def test_demo_connections_pass(self, pipeline):
        r = check_connection(pipeline.P, pipeline.D)
        assert r.passed and r.residual <= 1e-12

    def test_zero_forms_residual_is_mc_magnitude(self, shear_pipe):
        P = shear_pipe.P
        forms = {rid: stacked(LieValuedOneForm, rid, {p: np.zeros((1, 4))
                                                      for p in P.cover.regions[rid]})
                 for rid in P.cover.region_ids()}
        r = check_connection(P, PrincipalConnection(forms))
        ov = P.cover.overlap_points("alpha", "beta")
        want = max(float(np.max(np.abs(
            mc(P.group, P.entry(a, b).restrict(ov)).data[p])))
            for a, b in [("alpha", "beta"), ("beta", "alpha")] for p in ov)
        assert not r.passed
        assert r.residual == pytest.approx(want, rel=1e-12)


    def test_one_directional_cocycle_raises_a_package_error(self):
        P = one_directional_principal()
        with pytest.raises(MissingEntryError, match=r"^no cocycle entry for \('b', 'a'\)$"):
            check_connection(P, zero_forms(P.cover, "ab", 1))

    @pytest.mark.parametrize("present", [0, 1])
    def test_a_chart_without_a_form_raises_a_package_error(self, cover12, present):
        P = trivial_principal(cover12, so2_model())
        ids = cover12.region_ids()
        D = zero_forms(cover12, [ids[present]], 1)
        with pytest.raises(MissingEntryError,
                           match=rf"^no connection form on chart {ids[1 - present]!r}$"):
            check_connection(P, D)


class TestCompleteConnection:
    def test_trivial_cocycle_transports_seed(self, cover12):
        model = gl1_positive_model()
        P = trivial_principal(cover12, model)
        seed = stacked(LieValuedOneForm, "alpha", {p: [[np.sin(p)]] for p in cover12.points})
        D = complete_connection(P, ("alpha", seed))
        for rid in cover12.region_ids():
            for p in cover12.regions[rid]:
                assert np.allclose(D.form(rid).data[p], [[np.sin(p)]], atol=1e-15)

    def test_so2_zero_seed_gives_mc_of_cocycle(self):
        rows = "row = cos(t); -sin(t)\nrow = sin(t); cos(t)"
        scn, cover, group, P = two_arc_principal("so(2)", rows)
        seed = stacked(LieValuedOneForm, "alpha", {p: [[0.0]] for p in cover.points})
        D = complete_connection(P, ("alpha", seed))
        # rotation cocycle has logarithmic differential J dt, coefficient 1
        for p in cover.regions["beta"]:
            assert np.max(np.abs(D.form("beta").data[p] - [[1.0]])) <= 1e-12
        assert check_connection(P, D).passed

    def test_mobius_constant_cocycle_copies_coefficients(self, mobius_pipe):
        # constant transition entries contribute no mc term and gl(1)
        # is abelian, so every chart carries the seed expression
        D = mobius_pipe.D
        cover = mobius_pipe.cover
        for rid in cover.region_ids():
            for p in cover.regions[rid]:
                t = float(coord(cover, rid, p)[0])
                want = (2.0 + np.cos(t)) / 4.0
                assert np.max(np.abs(D.form(rid).data[p] - [[want]])) <= 1e-12

    def test_cycle_inconsistency_detected(self):
        text = """\
name = inconsistent
[space]
points = 24
region alpha = 0 .. 9
region beta  = 8 .. 17
region gamma = 16 .. 1
[group]
kind = gl1+
[cocycle alpha beta]
row = 1
[cocycle beta gamma]
row = 2 + sin(t)
[cocycle gamma alpha]
row = 1
[connection alpha]
coeffs = 0
"""
        scn = parse_scenario(text)
        cover = build_cover(scn)
        group = build_group(scn)
        P = build_principal(scn, cover, group)
        assert check_cocycle(P)["inverse"].passed     # pairwise data is fine
        with pytest.raises(CycleInconsistencyError):
            complete_connection(P, build_seed(scn, cover, group))

    def test_missing_extension_reported(self, cover12):
        model = gl1_positive_model()
        ov = cover12.overlap_points("alpha", "beta")
        entries = {("alpha", "beta"): model.unit_field("alpha", ov, 1)}
        P = PrincipalSheafData.from_pairs(cover12, model, entries)
        seed = stacked(LieValuedOneForm, "alpha", {p: [[1.0]] for p in cover12.regions["alpha"]})
        with pytest.raises(MissingExtensionError):
            complete_connection(P, ("alpha", seed))

    def test_disconnected_cover_rejected(self):
        cover = circle_cover(12, {"u": arc_range(0, 5, 12),
                                  "v": arc_range(6, 11, 12)})
        P = PrincipalSheafData.from_pairs(cover, gl1_positive_model(), {})
        seed = stacked(LieValuedOneForm, "u", {p: [[0.0]] for p in cover.points})
        with pytest.raises(CoverError):
            complete_connection(P, ("u", seed))

    def test_shared_coordinates_required(self):
        pts = [0, 1]
        coords = {("u", p): [float(p)] for p in pts}
        coords.update({("v", p): [float(p) / 2.0] for p in pts})
        jac = {}
        for p in pts:
            jac[("u", "u", p)] = [[1.0]]
            jac[("v", "v", p)] = [[1.0]]
            jac[("u", "v", p)] = [[2.0]]
            jac[("v", "u", p)] = [[0.5]]
        cover = SampledCover(pts, {"u": pts, "v": pts}, coords, jac)
        P = trivial_principal(cover, gl1_positive_model())
        seed = stacked(LieValuedOneForm, "u", {p: [[0.0]] for p in pts})
        with pytest.raises(CoverError):
            complete_connection(P, ("u", seed))


class TestEvaluateConnection:
    """The value of a connection on the local section s = (natural
    section of its chart) . g is gauge_form(g, w_chart) on s's domain."""

    def test_unit_factor_returns_form(self, so2_pipe):
        P, D = so2_pipe.P, so2_pipe.D
        e = P.group.unit_field("alpha", P.cover.regions["alpha"], 1)
        w = gauge_form(P.group, e, D.form("alpha").restrict(e.points), "alpha")
        for p in w.data:
            assert np.array_equal(w.data[p], D.form("alpha").data[p])

    def test_flat_trivial_data_gives_pure_gauge(self, cover12):
        model = so2_model()
        P = trivial_principal(cover12, model)
        forms = {rid: stacked(LieValuedOneForm, rid, {p: [[0.0]]
                                                      for p in cover12.regions[rid]})
                 for rid in cover12.region_ids()}
        D = PrincipalConnection(forms)
        rng = random.Random(3)
        g = random_element(model, cover12, "alpha", rng)
        w = gauge_form(model, g, D.form("alpha").restrict(g.points), "alpha")
        log = mc(model, g)
        for p in w.data:
            assert np.max(np.abs(w.data[p] - log.data[p])) <= 1e-15

    def test_gauge_covariance(self, pipeline):
        # value(s h) = rho(h^-1).value(s) + mc(h)
        P, D = pipeline.P, pipeline.D
        rng = random.Random(5)
        chart = P.cover.region_ids()[0]
        s = random_principal_section(P, chart, rng)
        h = random_element(P.group, P.cover, chart, rng)
        w = D.form(chart).restrict(s.points)
        lhs = gauge_form(P.group, group_mul(s.factor, h), w, chart)
        base = gauge_form(P.group, s.factor, w, chart)
        rhs_rot = rho_dot_form(P.group, mat_inv(h), base)
        log = mc(P.group, h)
        for p in lhs.data:
            assert np.max(np.abs(lhs.data[p]
                                 - (rhs_rot.data[p] + log.data[p]))) <= 1e-9

    def test_chart_independence_on_overlap(self, so2_pipe):
        P, D = so2_pipe.P, so2_pipe.D
        rng = random.Random(7)
        ov = P.cover.overlap_points("alpha", "beta")
        fac = random_element(P.group, P.cover, "alpha", rng).restrict(ov)
        s = PrincipalSectionLocal("alpha", fac)
        t = section_transition(P, s, "beta")
        via_alpha = gauge_form(P.group, s.factor, D.form("alpha").restrict(ov), "alpha")
        via_beta = gauge_form(P.group, t.factor, D.form("beta").restrict(t.points), "beta")
        back = transport_form(via_beta, P.cover, "alpha")
        for p in ov:
            assert np.max(np.abs(via_alpha.data[p] - back.data[p])) <= 1e-9
