"""Vector connections: induction, covariant derivative, frame round trip."""

import random

import numpy as np
import pytest

from conftest import trivial_principal
from helpers import coord, stacked
from sheafgauge import (
    AssociatedSection,
    Jet,
    JetMatrix,
    LieValuedOneForm,
    MatrixField,
    PreconditionError,
    PrincipalConnection,
    PullbackImageError,
    RepresentationModel,
    SampledCover,
    ScalarField,
    check_connection,
    check_frame_roundtrip,
    check_leibniz_koszul,
    check_nabla_agreement,
    constant_matrix_field,
    gl_model,
    induce_connection,
    nabla_apply,
    pull_back_connection,
    push_cocycle,
    random_scalar_field,
    random_section,
    rep_by_name,
    so2_in_gl2,
    so2_model,
    trivial_rep,
)

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def zero_connection(E):
    forms = {}
    for rid in E.cover.region_ids():
        dim = E.cover.dim(rid)
        forms[rid] = stacked(LieValuedOneForm, rid, {
            p: np.zeros((dim, E.group.ambient ** 2))
            for p in E.cover.regions[rid]})
    return PrincipalConnection(forms)


def form_gap(w, v):
    return max(float(np.max(np.abs(w.data[p] - v.data[p])))
               for p in w.data)


class TestInduce:
    def test_standard_rep_reshapes_forms(self, shear_pipe):
        for chart, w in shear_pipe.D.forms.items():
            got = shear_pipe.nab.form(chart)
            for p in w.data:
                assert np.array_equal(got.data[p], w.data[p])

    def test_so2_scales_quarter_turn(self, so2_pipe):
        for chart, w in so2_pipe.D.forms.items():
            th = so2_pipe.nab.form(chart)
            for p in w.data:
                c = float(w.data[p][0, 0])
                assert np.array_equal(th.data[p][0].reshape(2, 2), c * J)

    def test_diag_powers_scale_rows(self, mobius_pipe):
        for chart, w in mobius_pipe.D.forms.items():
            th = mobius_pipe.nab.form(chart)
            for p in w.data:
                c = float(w.data[p][0, 0])
                assert np.array_equal(th.data[p][0].reshape(2, 2), np.diag([c, 2 * c]))

    def test_law_violating_connection_rejected(self, so2_pipe):
        forms = dict(so2_pipe.D.forms)
        bad = dict(forms["alpha"].data)
        p0 = sorted(so2_pipe.cover.overlap_points("alpha", "beta"))[0]
        bad[p0] = bad[p0] + 1e-3
        forms["alpha"] = stacked(LieValuedOneForm, "alpha", bad)
        crooked = PrincipalConnection(forms)
        with pytest.raises(PreconditionError) as exc:
            induce_connection(so2_pipe.P, so2_pipe.R, crooked)
        assert exc.value.residual >= 5e-4

    def test_law_violation_names_its_point(self, so2_pipe):
        forms = dict(so2_pipe.D.forms)
        p0 = sorted(so2_pipe.cover.overlap_points("alpha", "beta"))[0]
        bumped = dict(forms["alpha"].data)
        bumped[p0] = bumped[p0] + 1e-3
        forms["alpha"] = stacked(LieValuedOneForm, "alpha", bumped)
        with pytest.raises(PreconditionError) as exc:
            induce_connection(so2_pipe.P, so2_pipe.R, PrincipalConnection(forms))
        assert exc.value.point == p0
        assert str(exc.value).startswith("principal connection fails its transition law ")
        assert str(exc.value).endswith(f" at {p0!r})")

    def test_empty_chart_form_induces_empty_matrix_form(self):
        cover = SampledCover(range(4), {"a": range(4)},
                             {("a", p): [p / 4] for p in range(4)})
        P = trivial_principal(cover, gl_model(2))
        full = stacked(LieValuedOneForm, "a", {p: np.ones((1, 4)) for p in range(4)})
        for empty in (LieValuedOneForm.from_stack("a", [], np.zeros((0, 1, 4))),
                      full.restrict(set())):
            D = PrincipalConnection({"a": empty})
            theta = induce_connection(P, trivial_rep(2), D).form("a")
            assert isinstance(theta, LieValuedOneForm)
            assert theta.coeffs.shape == (0, 1, 2 * 2)
            assert (theta.region, len(theta)) == ("a", 0)

    def test_incompatible_representation_rejected(self, so2_pipe):
        scaled = RepresentationModel("stretched", so2_model(), 2,
                                     lambda g: g, 2.0 * so2_in_gl2().phibar)
        with pytest.raises(PreconditionError):
            induce_connection(so2_pipe.P, scaled, so2_pipe.D)


class TestTransitionLaw:
    def test_identity_cocycle_equal_forms(self, cover12):
        E = push_cocycle(trivial_principal(cover12, gl_model(2)),
                         trivial_rep(2))
        th = np.array([[0.3, -1.2], [0.7, 0.4]])
        forms = {rid: stacked(LieValuedOneForm, rid, {
            p: th.reshape(1, 4).copy() for p in cover12.regions[rid]})
            for rid in cover12.region_ids()}
        r = check_connection(E, PrincipalConnection(forms))
        assert r.residual == 0.0

    def test_induced_connections_pass(self, pipeline):
        r = check_connection(pipeline.E, pipeline.nab)
        assert r.passed and r.residual <= 1e-9

    def test_zero_forms_miss_by_log_differential(self, shear_pipe):
        r = check_connection(shear_pipe.E,
                             zero_connection(shear_pipe.E))
        assert not r.passed
        assert r.residual == 1.0


class TestNablaApply:
    def test_zero_forms_give_plain_derivative(self, cover12):
        E = push_cocycle(trivial_principal(cover12, gl_model(2)),
                         trivial_rep(2))
        s = random_section(E, random.Random(21))
        der = nabla_apply(E, zero_connection(E), s)
        for chart, w in der.items():
            comp = s.components[chart]
            for p in w.data:
                assert np.array_equal(w.data[p], comp.data[p].grad)

    def test_zero_section_maps_to_zero(self, pipeline):
        E = pipeline.E
        comps = {}
        for rid in E.cover.region_ids():
            dim = E.cover.dim(rid)
            comps[rid] = stacked(MatrixField, rid, {
                p: JetMatrix(np.zeros((E.group.ambient, 1)),
                             np.zeros((dim, E.group.ambient, 1)))
                for p in E.cover.regions[rid]})
        der = nabla_apply(E, pipeline.nab, AssociatedSection(comps))
        assert all(not w.data[p].any() for w in der.values() for p in w.data)

    def test_frame_section_reads_connection_column(self, shear_pipe):
        # the constant j-th basis column on one chart is a section there
        E, nab = shear_pipe.E, shear_pipe.nab
        pts = E.cover.regions["alpha"]
        for j in range(E.group.ambient):
            ej = np.eye(E.group.ambient)[:, j:j + 1]
            s = AssociatedSection({"alpha": constant_matrix_field(
                "alpha", pts, ej, E.cover.dim("alpha"))})
            der = nabla_apply(E, nab, s)
            th = nab.form("alpha")
            for p in E.cover.regions["alpha"]:
                assert np.array_equal(der["alpha"].data[p],
                                      th.data[p].reshape(-1, 2, 2)[:, :, j:j + 1])

    def test_chart_agreement(self, pipeline):
        s = random_section(pipeline.E, random.Random(22))
        r = check_nabla_agreement(pipeline.E, pipeline.nab, s)
        assert r.passed and r.residual <= 1e-9


class TestKoszul:
    def test_constant_one_is_exact(self, so2_pipe):
        E = so2_pipe.E
        s = random_section(E, random.Random(23))
        ones = stacked(ScalarField, "base", {p: Jet(1.0, [0.0])
                                             for p in E.cover.points})
        assert check_leibniz_koszul(E, so2_pipe.nab, ones, s).residual == 0.0

    def test_zero_section_is_exact(self, so2_pipe):
        E = so2_pipe.E
        comps = {rid: stacked(MatrixField, rid, {
            p: JetMatrix(np.zeros((E.group.ambient, 1)), np.zeros((1, E.group.ambient, 1)))
            for p in E.cover.regions[rid]})
            for rid in E.cover.region_ids()}
        a = random_scalar_field("base", E.cover.points, 1,
                                random.Random(24))
        r = check_leibniz_koszul(E, so2_pipe.nab, a, AssociatedSection(comps))
        assert r.residual == 0.0

    def test_random_pairs(self, pipeline):
        rng = random.Random(25)
        s = random_section(pipeline.E, rng)
        a = random_scalar_field("base", pipeline.cover.points, 1, rng)
        r = check_leibniz_koszul(pipeline.E, pipeline.nab, a, s)
        assert r.passed and r.residual <= 1e-12

    def test_coordinate_field(self, so2_pipe):
        E = so2_pipe.E
        a = stacked(ScalarField, "base", {
            p: Jet(float(coord(so2_pipe.cover, "alpha", p)[0])
                   if p in so2_pipe.cover.regions["alpha"]
                   else float(coord(so2_pipe.cover, "beta", p)[0]), [1.0])
            for p in E.cover.points})
        s = random_section(E, random.Random(26))
        r = check_leibniz_koszul(E, so2_pipe.nab, a, s)
        assert r.residual <= 1e-12


class TestPullBack:
    def test_recovers_principal_forms(self, pipeline):
        back = pull_back_connection(pipeline.E, pipeline.R, pipeline.nab)
        for chart, w in pipeline.D.forms.items():
            assert form_gap(back.form(chart), w) <= 1e-12

    def test_induce_after_pull_back(self, so2_pipe):
        back = pull_back_connection(so2_pipe.E, so2_pipe.R, so2_pipe.nab)
        again = induce_connection(so2_pipe.P, so2_pipe.R, back)
        for chart in so2_pipe.nab.forms:
            assert form_gap(again.form(chart),
                            so2_pipe.nab.form(chart)) <= 1e-12

    def test_off_image_matrices_rejected(self, so2_pipe):
        E = so2_pipe.E
        sym = np.array([[0.0, 1.0], [1.0, 0.0]])
        forms = {rid: stacked(LieValuedOneForm, rid, {
            p: sym.reshape(1, 4).copy() for p in E.cover.regions[rid]})
            for rid in E.cover.region_ids()}
        with pytest.raises(PullbackImageError) as exc:
            pull_back_connection(E, so2_pipe.R, PrincipalConnection(forms))
        assert exc.value.point is not None
        assert exc.value.residual >= 0.5

    def test_non_injective_rejected(self, mobius_pipe):
        squash = rep_by_name("gl1_diag_powers(0)")
        with pytest.raises(PullbackImageError):
            pull_back_connection(mobius_pipe.E, squash, mobius_pipe.nab)


class TestFrame:
    def test_roundtrip_on_induced(self, pipeline):
        r = check_frame_roundtrip(pipeline.E, pipeline.nab)
        assert r.passed and r.residual <= 1e-12

    def test_roundtrip_rejects_law_violation(self, shear_pipe):
        with pytest.raises(PreconditionError):
            check_frame_roundtrip(shear_pipe.E,
                                  zero_connection(shear_pipe.E))
