"""Sampled covers: overlaps, gluing, chart transport."""

from collections import Counter

import numpy as np
import pytest

from helpers import coord, stacked
from sheafgauge import (
    CoverError,
    Jet,
    MissingJacobianError,
    OneForm,
    OverlapMismatchError,
    SampledCover,
    ScalarField,
    UnknownRegionError,
    arc_range,
    circle_cover,
    glue,
    transport_field,
    transport_form,
)


def two_chart_scaled_cover():
    """Two full-overlap regions whose coordinates differ by a factor 2.

    u uses t, v uses s = t/2, so d(coord u)/d(coord v) = 2.
    """
    pts = [0, 1]
    coords = {("u", p): [float(p)] for p in pts}
    coords.update({("v", p): [float(p) / 2.0] for p in pts})
    jac = {}
    for p in pts:
        jac[("u", "v", p)] = [[2.0]]
        jac[("v", "u", p)] = [[0.5]]
        jac[("u", "u", p)] = [[1.0]]
        jac[("v", "v", p)] = [[1.0]]
    return SampledCover(pts, {"u": pts, "v": pts}, coords, jac)


class TestCoverConstruction:
    def test_each_overlap_is_built_once(self, monkeypatch):
        calls = Counter()
        overlap_points = SampledCover.overlap_points

        def counted(cover, a, b):
            calls[(a, b)] += 1
            return overlap_points(cover, a, b)

        monkeypatch.setattr(SampledCover, "overlap_points", counted)
        n = 240
        circle_cover(n, {"u": arc_range(0, 130, n), "v": arc_range(120, 10, n)})
        assert set(calls) == {("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")}
        assert max(calls.values()) == 1

    def test_uncovered_point_rejected(self):
        with pytest.raises(CoverError):
            SampledCover([0, 1], {"u": [0]}, {("u", 0): [0.0]})

    def test_stray_region_point_rejected(self):
        with pytest.raises(CoverError):
            SampledCover([0], {"u": [0, 5]}, {("u", 0): [0.0], ("u", 5): [1.0]})

    def test_points_with_one_string_form_rejected(self):
        # a report names a point by its string, so 1 and "1" would read alike
        with pytest.raises(CoverError, match="string forms"):
            SampledCover([1, "1"], {"u": [1, "1"]}, {("u", 1): [0.0], ("u", "1"): [1.0]})

    def test_missing_coords_rejected(self):
        with pytest.raises(CoverError):
            SampledCover([0, 1], {"u": [0, 1]}, {("u", 0): [0.0]})

    def test_non_identity_diagonal_jacobian_rejected(self):
        with pytest.raises(CoverError):
            SampledCover([0], {"u": [0]}, {("u", 0): [0.0]},
                         {("u", "u", 0): [[2.0]]})

    def test_chain_rule_violation_rejected(self):
        pts = [0]
        coords = {("u", 0): [0.0], ("v", 0): [0.0]}
        jac = {("u", "v", 0): [[2.0]], ("v", "u", 0): [[0.7]],
               ("u", "u", 0): [[1.0]]}
        with pytest.raises(CoverError):
            SampledCover(pts, {"u": pts, "v": pts}, coords, jac)

    def test_unknown_region_lookups(self):
        c = circle_cover(4, {"u": range(4)})
        with pytest.raises(UnknownRegionError):
            c.overlap_points("u", "nope")
        with pytest.raises(UnknownRegionError):
            c.dim("nope")


def five_point_jacobians():
    """Identity Jacobians of two full-overlap charts u, v at points 0..4,
    supplied point by point."""
    jac = {}
    for p in range(5):
        for a, b in (("u", "v"), ("v", "u"), ("u", "u"), ("v", "v")):
            jac[(a, b, p)] = [[1.0]]
    return jac


def five_point_cover(jac):
    pts = list(range(5))
    coords = {(r, p): [float(p)] for r in "uv" for p in pts}
    return SampledCover(pts, {"u": pts, "v": pts}, coords, jac)


class TestJacobianValidation:
    """A bad entry at a middle point is found, named, and reported first
    in the order the entries were supplied."""

    def test_identity_cover_is_accepted(self):
        assert len(five_point_cover(five_point_jacobians()).jacobians) == 20

    def test_non_identity_diagonal_at_middle_point(self):
        jac = five_point_jacobians()
        jac[("v", "v", 2)] = [[1.5]]
        with pytest.raises(CoverError, match=r"^jacobian \(v, v\) at 2 is not the identity$"):
            five_point_cover(jac)

    def test_singular_entry_at_middle_point(self):
        jac = five_point_jacobians()
        jac[("u", "v", 3)] = [[0.0]]
        with pytest.raises(CoverError, match=r"^jacobian \(u, v\) at 3 is singular$"):
            five_point_cover(jac)

    def test_chain_rule_at_middle_point(self):
        jac = five_point_jacobians()
        jac[("v", "u", 2)] = [[0.5]]
        # (u, v, 2) is supplied before (v, u, 2); with c = u it meets
        # J_uv J_vu = 0.5 against J_uu = 1
        with pytest.raises(CoverError,
                           match=r"^jacobian chain rule fails for \(u, v, u\) at 2$"):
            five_point_cover(jac)

    def test_first_supplied_failure_wins_across_pairs(self):
        jac = five_point_jacobians()
        jac[("u", "v", 3)] = [[0.0]]          # the pair whose entries come first
        jac[("v", "v", 1)] = [[2.0]]          # but this entry is supplied earlier
        with pytest.raises(CoverError, match=r"^jacobian \(v, v\) at 1 is not the identity$"):
            five_point_cover(jac)

    def test_pointwise_checks_come_before_the_chain_rule(self):
        jac = five_point_jacobians()
        jac[("u", "v", 1)] = [[3.0]]          # breaks the chain rule only
        jac[("v", "v", 4)] = [[2.0]]
        with pytest.raises(CoverError, match=r"^jacobian \(v, v\) at 4 is not the identity$"):
            five_point_cover(jac)

    def test_third_region_in_region_order(self):
        jac = five_point_jacobians()
        jac[("u", "u", 2)] = [[1.0 + 1e-13]]   # within the identity tolerance
        jac[("v", "u", 2)] = [[1.0 + 1e-11]]   # fails with c = u, before c = v
        with pytest.raises(CoverError,
                           match=r"^jacobian chain rule fails for \(u, v, u\) at 2$"):
            five_point_cover(jac)


class TestOverlap:
    def test_self_overlap_is_the_region(self, cover12):
        assert cover12.overlap_points("alpha", "alpha") == cover12.regions["alpha"]

    def test_disjoint_arcs_empty(self):
        c = circle_cover(12, {"u": arc_range(0, 3, 12), "v": arc_range(6, 9, 12),
                              "w": arc_range(0, 11, 12)})
        assert c.overlap_points("u", "v") == frozenset()

    def test_two_half_arcs_on_twelve_points(self, cover12):
        # enumerated by hand: alpha = 0..7, beta = 6..13 mod 12
        assert cover12.overlap_points("alpha", "beta") == {0, 1, 6, 7}

    def test_overlap_pairs(self, cover12):
        assert cover12.overlap_pairs() == [("alpha", "beta")]


class TestRestrictGlue:
    def field_on(self, cover, rid):
        return stacked(ScalarField, rid, {p: Jet(float(p), [1.0])
                                          for p in cover.regions[rid]})

    def test_restrict_full_region_identity(self, cover12):
        f = self.field_on(cover12, "alpha")
        g = f.restrict(cover12.overlap_points("alpha", "alpha"))
        assert g.points == f.points and g.region == f.region

    def test_restrict_to_empty(self, cover12):
        f = self.field_on(cover12, "alpha")
        assert len(f.restrict([])) == 0

    def test_restrict_preserves_values(self, cover12):
        f = self.field_on(cover12, "alpha")
        g = f.restrict([0, 1])
        assert g.data[1].max_abs_diff(f.data[1]) == 0.0

    def test_glue_single_piece(self, cover12):
        f = self.field_on(cover12, "alpha")
        g = glue({"alpha": f})
        assert g.points == f.points

    def test_glue_restrict_roundtrip(self, cover12):
        # a global field split along the two charts reassembles exactly
        full = stacked(ScalarField, "all", {p: Jet(np.sin(p), [np.cos(p)])
                                            for p in cover12.points})
        pieces = {rid: full.restrict(cover12.regions[rid]).relabel(rid)
                  for rid in cover12.region_ids()}
        g = glue(pieces)
        assert g.points == full.points
        for p in full.points:
            assert g.data[p].max_abs_diff(full.data[p]) == 0.0

    def test_glue_two_equal_constants(self):
        a = stacked(ScalarField, "u", {0: Jet(3.0, [0.0]), 1: Jet(3.0, [0.0])})
        b = stacked(ScalarField, "v", {1: Jet(3.0, [0.0]), 2: Jet(3.0, [0.0])})
        g = glue({"u": a, "v": b})
        assert g.points == {0, 1, 2}
        assert all(g.data[p].value == 3.0 for p in g.points)

    def test_glue_mismatch_names_pair_and_point(self):
        a = stacked(ScalarField, "u", {0: Jet(1.0, [0.0])})
        b = stacked(ScalarField, "v", {0: Jet(2.0, [0.0])})
        with pytest.raises(OverlapMismatchError) as err:
            glue({"u": a, "v": b})
        assert err.value.point == 0
        assert {err.value.region_a, err.value.region_b} == {"u", "v"}
        assert err.value.residual == pytest.approx(1.0)

    def test_glue_within_tolerance_keeps_sorted_first(self):
        a = stacked(ScalarField, "u", {0: Jet(1.0, [0.0])})
        b = stacked(ScalarField, "v", {0: Jet(1.0 + 1e-12, [0.0])})
        g = glue({"v": b, "u": a})
        assert g.data[0].value == 1.0


class TestTransport:
    def test_identity_jacobian_unchanged(self, cover12):
        w = stacked(OneForm, "alpha", {p: [0.5] for p in cover12.overlap_points("alpha", "beta")})
        t = transport_form(w, cover12, "beta")
        assert t.region == "beta"
        for p in w.data:
            assert np.array_equal(t.data[p], w.data[p])

    def test_scaling_chart_doubles_coefficients(self):
        c = two_chart_scaled_cover()
        w = stacked(OneForm, "u", {p: [3.0] for p in (0, 1)})
        t = transport_form(w, c, "v")
        for p in (0, 1):
            assert np.array_equal(t.data[p], [6.0])

    def test_roundtrip_is_identity(self):
        c = two_chart_scaled_cover()
        w = stacked(OneForm, "u", {0: [0.3], 1: [-1.7]})
        back = transport_form(transport_form(w, c, "v"), c, "u")
        for p in (0, 1):
            assert np.max(np.abs(back.data[p] - w.data[p])) <= 1e-14

    def test_field_gradients_transform_like_forms(self):
        c = two_chart_scaled_cover()
        f = stacked(ScalarField, "u", {0: Jet(1.0, [3.0])})
        g = transport_field(f, c, "v")
        assert g.data[0].value == 1.0
        assert np.array_equal(g.data[0].gradient, [6.0])

    def test_missing_jacobian_reported(self):
        pts = [0]
        coords = {("u", 0): [0.0], ("v", 0): [0.0]}
        c = SampledCover(pts, {"u": pts, "v": pts}, coords, {})
        w = stacked(OneForm, "u", {0: [1.0]})
        with pytest.raises(MissingJacobianError):
            transport_form(w, c, "v")


class TestCircleCover:
    def test_angle_coordinates(self):
        c = circle_cover(24, {"u": range(24)})
        assert np.allclose(coord(c, "u", 6), [np.pi / 2])
        assert c.dim("u") == 1

    def test_arc_range_wraparound(self):
        assert arc_range(16, 1, 24) == [16, 17, 18, 19, 20, 21, 22, 23, 0, 1]
        assert arc_range(0, 9, 24) == list(range(10))
        assert arc_range(5, 5, 24) == [5]

    def test_demo_cover_jacobian_cocycle(self, pipeline):
        cover = pipeline.cover
        for (a, b, p), j in cover.jacobians.items():
            for c in cover.region_ids():
                if (b, c, p) in cover.jacobians and (a, c, p) in cover.jacobians:
                    lhs = j @ cover.jacobians[(b, c, p)]
                    assert np.max(np.abs(lhs - cover.jacobians[(a, c, p)])) <= 1e-12
