"""Representations, pushed cocycles, associated sections, morphisms."""

import random

import numpy as np
import pytest

from helpers import by_key, coord, map_entries, stacked
from sheafgauge import (
    AssociatedSection,
    EmptyOverlapError,
    EquivarianceError,
    FieldMismatchError,
    GroupModel,
    Jet,
    JetMatrix,
    MatrixField,
    NonFiniteError,
    PrincipalSectionLocal,
    PrincipalSheafData,
    RepresentationModel,
    SampledCover,
    ScalarField,
    TensorialMorphismData,
    catalog_elements,
    check_cocycle,
    check_components,
    check_lie_type,
    check_representation,
    checks,
    evaluate_tensorial,
    gl_model,
    gl1_diag_powers,
    group_mul,
    jet_mul,
    load_demo,
    mat_inv,
    mat_mul,
    quotient_reduce,
    random_element,
    random_principal_section,
    random_scalar_field,
    random_section,
    rep_by_name,
    run_checks,
    section_smul,
    section_to_tensorial,
    section_transition,
    so2_in_gl2,
    so2_model,
    tensorial_to_section,
    trivial_rep,
)
from sheafgauge.associated import push_cocycle
from sheafgauge.cover import TAU_GLUE
from sheafgauge.errors import ScenarioError

REPS = {
    "mobius": gl1_diag_powers(1, 2),
    "so2": so2_in_gl2(),
    "shear-frame": trivial_rep(2),
}


def field_gap(f, g):
    return max(f.data[p].max_abs_diff(g.data[p]) for p in f.points)


def section_gap(s, t):
    return max(field_gap(s.components[a], t.components[a])
               for a in s.components)


class TestRepresentations:
    def test_standard_rep_is_identity_map(self, shear_pipe):
        R = trivial_rep(2)
        g = catalog_elements(R.source, shear_pipe.cover, "alpha")[2]
        assert field_gap(R.phi(g), g) == 0.0
        assert R.injective

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_standard_rep_linearization_is_the_identity(self, n):
        R = trivial_rep(n)
        assert R.n == n
        assert np.array_equal(R.phibar, np.eye(n * n))

    def test_so2_inclusion_keeps_entries(self, so2_pipe):
        R = so2_in_gl2()
        g = so2_pipe.P.entry("alpha", "beta")
        assert field_gap(R.phi(g), g) == 0.0
        assert R.injective

    def test_diag_powers_oracle(self):
        R = gl1_diag_powers(1, 2)
        g = stacked(MatrixField, "u", {0: JetMatrix([[2.0]], [[[0.5]]])})
        img = R.phi(g).data[0]
        assert np.array_equal(img.value, np.diag([2.0, 4.0]))
        # d(x^2) = 2x dx jetwise
        assert np.array_equal(img.grad[0], np.diag([0.5, 2.0]))

    def test_the_lift_keeps_an_empty_fields_dim(self):
        g = MatrixField.from_stack("u", [], np.zeros((0, 3, 1, 1)))
        assert gl1_diag_powers(1, 2).phi(g).coeffs.shape == (0, 3, 2, 2)

    def test_an_empty_first_sample_checks_the_unit_on_no_points(self):
        g = MatrixField.from_stack("u", [], np.zeros((0, 3, 1, 1)))
        r = check_representation(gl1_diag_powers(1, 2), [(g, g)])
        assert r.passed and r.residual == 0.0 and r.worst_point is None

    def test_homomorphism_over_catalog(self, pipeline):
        R = REPS[pipeline.scn.name]
        elems = catalog_elements(R.source, pipeline.cover, "alpha")
        pairs = list(zip(elems, elems[1:]))
        r = check_representation(R, pairs)
        assert r.passed and r.residual <= 1e-10

    def test_rep_by_name_grammar(self):
        assert rep_by_name("trivial(3)").n == 3
        assert rep_by_name("gl1_diag_powers(2, -1)").n == 2
        assert rep_by_name("so2_in_gl2").injective
        assert not rep_by_name("gl1_diag_powers(0)").injective
        with pytest.raises(ScenarioError):
            rep_by_name("fourier")

    @pytest.mark.parametrize("phibar,injective", [
        ([[1e-11]], True), ([[1e200]], True), ([[0.0]], False)])
    def test_injective_does_not_depend_on_scale(self, phibar, injective):
        R = RepresentationModel("scaled", gl_model(1), 1, lambda g: g, phibar)
        assert R.injective is injective

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_phibar_raises_a_package_error(self, entry):
        with pytest.raises(NonFiniteError, match="phibar must be finite"):
            RepresentationModel("bad", gl_model(1), 1, lambda g: g, [[entry]])

    def test_rep_by_name_checks_ambient(self, so2_pipe, mobius_pipe):
        rep_by_name("so2_in_gl2", source=so2_pipe.group)
        with pytest.raises(ScenarioError):
            rep_by_name("so2_in_gl2", source=mobius_pipe.group)


class TestLieType:
    def test_both_conditions_pass(self, pipeline):
        R = REPS[pipeline.scn.name]
        elems = catalog_elements(R.source, pipeline.cover, "alpha")
        parts = check_lie_type(R, elems)
        assert set(parts) == {"mc", "rho"}
        assert parts["mc"].passed and parts["mc"].residual <= 1e-9
        assert parts["rho"].passed and parts["rho"].residual <= 1e-9

    def test_cocycle_entries_are_valid_elements(self, so2_pipe):
        parts = check_lie_type(so2_in_gl2(),
                               [so2_pipe.P.entry("alpha", "beta")])
        assert all(r.passed for r in parts.values())

    @pytest.mark.parametrize("demo", sorted(REPS))
    def test_doubled_phibar_turns_def1_mc_red(self, demo, monkeypatch):
        # negative control: phi no longer differentiates to phibar, so the
        # Maurer-Cartan half of def1 fails; the bundle P is untouched
        build = checks.build_representation

        def doubled(scn, group):
            R = build(scn, group)
            return RepresentationModel(R.name, R.source, R.n, R.phi, 2.0 * R.phibar)
        monkeypatch.setattr(checks, "build_representation", doubled)
        report = run_checks(load_demo(demo))
        assert by_key(report)["liehom.def1.mc"].status == "fail"
        cocycle = [r for r in report.results() if r.name.startswith("cocycle.")]
        assert cocycle and all(r.status == "pass" for r in cocycle)


class TestPushCocycle:
    def test_standard_rep_pushes_verbatim(self, shear_pipe):
        E = push_cocycle(shear_pipe.P, trivial_rep(2))
        for pair, f in E.cocycle.items():
            assert field_gap(f, shear_pipe.P.cocycle[pair]) == 0.0

    def test_inclusion_pushes_verbatim(self, so2_pipe):
        assert field_gap(so2_pipe.E.entry("alpha", "beta"),
                         so2_pipe.P.entry("alpha", "beta")) <= 1e-14

    def test_mobius_flip_becomes_diag(self, mobius_pipe):
        e = mobius_pipe.E.entry("gamma", "alpha")
        for p in e.points:
            assert np.array_equal(e.data[p].value, np.diag([-1.0, 1.0]))
            assert not e.data[p].grad.any()

    def test_pushed_cocycle_identities(self, pipeline):
        parts = check_cocycle(pipeline.E)
        assert all(r.passed and r.residual <= 1e-10 for r in parts.values())

    def test_rank_matches_representation(self, pipeline):
        assert pipeline.E.group.ambient == REPS[pipeline.scn.name].n

    def test_as_principal_reuses_group_checks(self, mobius_pipe):
        E = mobius_pipe.E
        assert E.group.ambient == REPS[mobius_pipe.scn.name].n
        assert all(r.passed for r in check_cocycle(E).values())

    def test_a_source_over_another_basis_is_refused(self, so2_pipe):
        # one part in 1e7 apart: within numpy's default allclose tolerances
        other = GroupModel("so(2)", 2, so2_model().lie_basis * (1 + 1e-7))
        R = RepresentationModel("so2_in_gl2", other, 2, lambda g: g, so2_in_gl2().phibar)
        with pytest.raises(FieldMismatchError, match="does not match group so"):
            push_cocycle(so2_pipe.P, R)


class TestQuotientReduce:
    """The vector data is the alpha component of a random section of E,
    which lives on the whole of the chart."""

    def test_unit_section_keeps_data(self, so2_pipe):
        P, R = so2_pipe.P, so2_pipe.R
        pts = P.cover.regions["alpha"]
        s = PrincipalSectionLocal(
            "alpha", P.group.unit_field("alpha", pts, 1))
        h = random_section(so2_pipe.E, random.Random(0)).components["alpha"]
        assert field_gap(quotient_reduce(P, R, s, h), h) == 0.0

    def test_equivalent_pairs_reduce_alike(self, pipeline):
        P, R = pipeline.P, pipeline.R
        rng = random.Random(11)
        s = random_principal_section(P, "alpha", rng)
        h = random_section(pipeline.E, rng).components["alpha"]
        base = quotient_reduce(P, R, s, h)
        for g in catalog_elements(P.group, P.cover, "alpha"):
            moved = PrincipalSectionLocal("alpha", group_mul(s.factor, g))
            hg = mat_mul(R.phi(mat_inv(g)), h)
            assert field_gap(quotient_reduce(P, R, moved, hg), base) <= 1e-12

    def test_shape_and_domain_validated(self, so2_pipe):
        P, R = so2_pipe.P, so2_pipe.R
        rng = random.Random(1)
        s = random_principal_section(P, "alpha", rng)
        wide = stacked(MatrixField, "alpha", {
            p: JetMatrix(np.eye(2), np.zeros((1, 2, 2))) for p in s.points})
        with pytest.raises(FieldMismatchError):
            quotient_reduce(P, R, s, wide)
        short = random_section(so2_pipe.E, rng).components["alpha"]
        short = short.restrict(sorted(s.points)[:2])
        with pytest.raises(FieldMismatchError):
            quotient_reduce(P, R, s, short)


def ones_field(points):
    return stacked(ScalarField, "base", {p: Jet(1.0, [0.0]) for p in points})


class TestSectionArithmetic:
    def test_one_is_neutral(self, pipeline):
        E = pipeline.E
        s = random_section(E, random.Random(4))
        out = section_smul(E, ones_field(E.cover.points), s)
        assert section_gap(out, s) == 0.0

    def test_zero_scalar_gives_zero_section(self, pipeline):
        E = pipeline.E
        s = random_section(E, random.Random(3))
        zero = stacked(ScalarField, "base", {p: Jet(0.0, [0.0]) for p in E.cover.points})
        out = section_smul(E, zero, s)
        assert all(not out.components[a].data[p].value.any()
                   and not out.components[a].data[p].grad.any()
                   for a in out.components for p in out.components[a].points)

    def test_scalars_act_associatively(self, pipeline):
        # (a b) s = a (b s), with a b the pointwise jet product
        E = pipeline.E
        rng = random.Random(5)
        s = random_section(E, rng)
        a = random_scalar_field("base", E.cover.points, 1, rng)
        b = random_scalar_field("base", E.cover.points, 1, rng)
        ab = stacked(ScalarField, "base", {p: jet_mul(a.data[p], b.data[p])
                                           for p in E.cover.points})
        lhs = section_smul(E, ab, s)
        rhs = section_smul(E, a, section_smul(E, b, s))
        assert section_gap(lhs, rhs) <= 1e-14

    def test_results_stay_compatible(self, mobius_pipe):
        E = mobius_pipe.E
        rng = random.Random(6)
        s = random_section(E, rng)
        a = random_scalar_field("base", E.cover.points, 1, rng)
        out = section_smul(E, a, s)
        assert check_components(E, out.components).residual <= 1e-12

    def test_incompatible_section_rejected(self, so2_pipe):
        E = so2_pipe.E
        s = random_section(E, random.Random(7))
        p0 = sorted(E.cover.overlap_points("alpha", "beta"))[0]
        bad = dict(s.components)
        bad["alpha"] = map_entries(
            bad["alpha"],
            lambda p, m: JetMatrix(m.value + (1e-3 if p == p0 else 0.0),
                                   m.grad))
        broken = AssociatedSection(bad)
        with pytest.raises(EquivarianceError) as exc:
            section_smul(E, ones_field(E.cover.points), broken)
        assert exc.value.residual >= 5e-4
        assert exc.value.point == p0

    def test_scalar_must_cover_components(self, so2_pipe):
        E = so2_pipe.E
        s = random_section(E, random.Random(8))
        partial = ones_field(sorted(E.cover.points)[:3])
        with pytest.raises(FieldMismatchError):
            section_smul(E, partial, s)


def scaled_two_chart_cover(k):
    """Two charts on the same six points; v's coordinate is k times u's,
    so d(coord u)/d(coord v) = 1/k."""
    pts = range(6)
    coords, jac = {}, {}
    for p in pts:
        coords[("u", p)], coords[("v", p)] = [p / 5], [k * p / 5]
        jac[("u", "u", p)] = jac[("v", "v", p)] = [[1.0]]
        jac[("u", "v", p)], jac[("v", "u", p)] = [[1.0 / k]], [[k]]
    return SampledCover(pts, {"u": pts, "v": pts}, coords, jac)


class TestRandomSection:
    @pytest.mark.parametrize("k", [2.0, 0.5, -1.0], ids=["double", "half", "flip"])
    def test_compatible_on_charts_with_different_coordinates(self, k):
        # g_uv = 1 + t has its gradient in u's coordinate t; a product
        # that mixed the two charts' gradients missed by about 1
        cover = scaled_two_chart_cover(k)
        g = stacked(MatrixField, "u", {p: JetMatrix([[1 + p / 5]], [[[1.0]]])
                                       for p in cover.points})
        E = PrincipalSheafData.from_pairs(cover, gl_model(1), {("u", "v"): g})
        assert all(r.passed for r in check_cocycle(E).values())
        s = random_section(E, random.Random(0))
        assert set(s.components) == {"u", "v"}
        assert check_components(E, s.components).residual <= TAU_GLUE

    def test_compatible_for_a_rotation_cocycle_on_scaled_charts(self):
        # a gl(2) rotation by the angle t of chart u, seen from a chart
        # whose coordinate is three times u's
        cover = scaled_two_chart_cover(3.0)
        rot = {}
        for p in cover.points:
            c, sn = np.cos(p / 5), np.sin(p / 5)
            rot[p] = JetMatrix([[c, -sn], [sn, c]], [[[-sn, -c], [c, -sn]]])
        g = stacked(MatrixField, "u", rot)
        E = PrincipalSheafData.from_pairs(cover, gl_model(2), {("u", "v"): g})
        assert all(r.passed for r in check_cocycle(E).values())
        s = random_section(E, random.Random(1))
        assert check_components(E, s.components).residual <= TAU_GLUE


class TestMobiusOddSection:
    """The flip bundle carries a half-angle section.

    With a single sign flip in the cocycle, sin(t/2) continued past the
    wrap needs its sign reversed on the wrapped points of the closing
    chart; the square of the half-angle sine is single valued and fills
    the square-power component.
    """

    def build(self, cover):
        comps = {}
        for rid in cover.region_ids():
            data = {}
            for p in cover.regions[rid]:
                t = float(coord(cover, rid, p)[0])
                flip = -1.0 if rid == "gamma" and p in (0, 1) else 1.0
                v1, g1 = flip * np.sin(t / 2), flip * np.cos(t / 2) / 2
                v2, g2 = np.sin(t / 2) ** 2, np.sin(t / 2) * np.cos(t / 2)
                data[p] = JetMatrix([[v1], [v2]], [[[g1], [g2]]])
            comps[rid] = stacked(MatrixField, rid, data)
        return AssociatedSection(comps)

    def test_half_angle_section_is_compatible(self, mobius_pipe):
        s = self.build(mobius_pipe.cover)
        assert check_components(mobius_pipe.E, s.components).residual == 0.0

    def test_unflipped_variant_is_not(self, mobius_pipe):
        cover = mobius_pipe.cover
        s = self.build(cover)
        naive = dict(s.components)
        naive["gamma"] = map_entries(
            naive["gamma"],
            lambda p, m: JetMatrix(np.abs(m.value) * np.sign(m.value)
                                   if p not in (0, 1)
                                   else m.value * np.array([[-1.0], [1.0]]),
                                   m.grad))
        r = check_components(mobius_pipe.E, naive)
        assert not r.passed
        assert r.worst_point in (0, 1)


class TestMorphismRoundTrips:
    def test_section_tensorial_roundtrip(self, pipeline):
        E, P, R = pipeline.E, pipeline.P, pipeline.R
        s = random_section(E, random.Random(12))
        f = section_to_tensorial(E, s)
        back = tensorial_to_section(E, f)
        assert section_gap(back, s) == 0.0

    def test_tensorial_section_roundtrip(self, pipeline):
        E, P, R = pipeline.E, pipeline.P, pipeline.R
        s = random_section(E, random.Random(13))
        f = section_to_tensorial(E, s)
        again = section_to_tensorial(E, tensorial_to_section(E, f))
        assert all(field_gap(again.values[a], f.values[a]) == 0.0
                   for a in f.values)

    def test_incompatible_values_rejected(self, so2_pipe):
        E, P, R = so2_pipe.E, so2_pipe.P, so2_pipe.R
        s = random_section(E, random.Random(14))
        vals = dict(s.components)
        vals["beta"] = map_entries(
            vals["beta"],
            lambda p, m: JetMatrix(m.value + 1e-2, m.grad))
        with pytest.raises(EquivarianceError):
            tensorial_to_section(E, TensorialMorphismData(vals))

    def test_evaluate_on_natural_section(self, so2_pipe):
        E, P, R = so2_pipe.E, so2_pipe.P, so2_pipe.R
        s = random_section(E, random.Random(15))
        f = section_to_tensorial(E, s)
        nat = PrincipalSectionLocal("alpha", P.group.unit_field(
            "alpha", P.cover.regions["alpha"], 1))
        out = evaluate_tensorial(P, R, f, nat)
        assert field_gap(out, s.components["alpha"]) <= 1e-15

    def test_evaluate_twists_by_factor(self, pipeline):
        E, P, R = pipeline.E, pipeline.P, pipeline.R
        rng = random.Random(16)
        s = random_section(E, rng)
        f = section_to_tensorial(E, s)
        g = random_element(P.group, P.cover, "alpha", rng)
        out = evaluate_tensorial(P, R, f, PrincipalSectionLocal("alpha", g))
        want = mat_mul(R.phi(mat_inv(g)), s.components["alpha"])
        assert field_gap(out, want) <= 1e-12

    def test_evaluate_off_domain_rejected(self, mobius_pipe):
        E, P, R = mobius_pipe.E, mobius_pipe.P, mobius_pipe.R
        s = random_section(E, random.Random(17))
        only_beta = TensorialMorphismData({
            "beta": s.components["beta"].restrict(
                [p for p in P.cover.regions["beta"]
                 if p not in P.cover.regions["alpha"]])})
        inner = [p for p in P.cover.regions["alpha"]
                 if p not in P.cover.regions["beta"]]
        nat = PrincipalSectionLocal(
            "alpha", P.group.unit_field("alpha", inner, 1))
        with pytest.raises(EmptyOverlapError):
            evaluate_tensorial(P, R, only_beta, nat)
