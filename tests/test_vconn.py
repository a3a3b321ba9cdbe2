"""Vector connections: induction, covariant derivative, frame round trip."""

import numpy as np
import pytest

from conftest import trivial_principal
from sheafgauge import (
    AssociatedSection,
    Jet,
    JetMatrix,
    LieValuedOneForm,
    MatrixField,
    MatrixOneForm,
    PreconditionError,
    PrincipalConnection,
    PullbackImageError,
    RepresentationModel,
    SampledCover,
    ScalarField,
    VectorConnection,
    check_frame_roundtrip,
    check_leibniz_koszul,
    check_nabla_agreement,
    check_vector_connection,
    frame_section,
    frame_sheaf,
    gl_model,
    induce_connection,
    lie_form_to_matrix,
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
        forms[rid] = MatrixOneForm(rid, E.rank, E.rank, {
            p: np.zeros((dim, E.rank, E.rank))
            for p in E.cover.regions[rid]})
    return VectorConnection(forms)


def form_gap(w, v):
    return max(float(np.max(np.abs(w.data[p] - v.data[p])))
               for p in w.data)


class TestInduce:
    def test_standard_rep_reshapes_forms(self, shear_pipe):
        for chart, w in shear_pipe.D.forms.items():
            want = lie_form_to_matrix(w, 2)
            got = shear_pipe.nab.form(chart)
            for p in w.data:
                assert np.array_equal(got.data[p], want.data[p])

    def test_so2_scales_quarter_turn(self, so2_pipe):
        for chart, w in so2_pipe.D.forms.items():
            th = so2_pipe.nab.form(chart)
            for p in w.data:
                c = float(w.data[p][0, 0])
                assert np.array_equal(th.data[p][0], c * J)

    def test_diag_powers_scale_rows(self, mobius_pipe):
        for chart, w in mobius_pipe.D.forms.items():
            th = mobius_pipe.nab.form(chart)
            for p in w.data:
                c = float(w.data[p][0, 0])
                assert np.array_equal(th.data[p][0], np.diag([c, 2 * c]))

    def test_law_violating_connection_rejected(self, so2_pipe):
        forms = dict(so2_pipe.D.forms)
        bad = dict(forms["alpha"].data)
        p0 = sorted(so2_pipe.cover.overlap_points("alpha", "beta"))[0]
        bad[p0] = bad[p0] + 1e-3
        forms["alpha"] = LieValuedOneForm("alpha", bad)
        crooked = PrincipalConnection(forms)
        with pytest.raises(PreconditionError) as exc:
            induce_connection(so2_pipe.P, so2_pipe.R, crooked)
        assert exc.value.residual >= 5e-4
        induce_connection(so2_pipe.P, so2_pipe.R, crooked, verify=False)

    def test_empty_chart_form_induces_empty_matrix_form(self):
        cover = SampledCover(range(4), {"a": range(4)},
                             {("a", p): [p / 4] for p in range(4)})
        P = trivial_principal(cover, gl_model(2))
        D = PrincipalConnection({"a": LieValuedOneForm("a", {})})
        theta = induce_connection(P, trivial_rep(2), D, verify=False).form("a")
        assert isinstance(theta, MatrixOneForm)
        assert theta.coeffs.shape == (0, 0, 2, 2)
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
        forms = {rid: MatrixOneForm(rid, 2, 2, {
            p: th[None, :, :].copy() for p in cover12.regions[rid]})
            for rid in cover12.region_ids()}
        r = check_vector_connection(E, VectorConnection(forms))
        assert r.residual == 0.0

    def test_induced_connections_pass(self, pipeline):
        r = check_vector_connection(pipeline.E, pipeline.nab)
        assert r.passed and r.residual <= 1e-9

    def test_zero_forms_miss_by_log_differential(self, shear_pipe):
        r = check_vector_connection(shear_pipe.E,
                                    zero_connection(shear_pipe.E))
        assert not r.passed
        assert r.residual == 1.0


class TestNablaApply:
    def test_zero_forms_give_plain_derivative(self, cover12):
        E = push_cocycle(trivial_principal(cover12, gl_model(2)),
                         trivial_rep(2))
        s = random_section(E, np.random.default_rng(21))
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
            comps[rid] = MatrixField(rid, E.rank, 1, {
                p: JetMatrix(np.zeros((E.rank, 1)),
                             np.zeros((dim, E.rank, 1)))
                for p in E.cover.regions[rid]})
        der = nabla_apply(E, pipeline.nab, AssociatedSection(comps))
        assert all(not w.data[p].any() for w in der.values() for p in w.data)

    def test_frame_section_reads_connection_column(self, shear_pipe):
        E, nab = shear_pipe.E, shear_pipe.nab
        for j in range(E.rank):
            der = nabla_apply(E, nab, frame_section(E, "alpha", j))
            th = nab.form("alpha")
            for p in E.cover.regions["alpha"]:
                assert np.array_equal(der["alpha"].data[p],
                                      th.data[p][:, :, j:j + 1])

    def test_chart_agreement(self, pipeline):
        s = random_section(pipeline.E, np.random.default_rng(22))
        r = check_nabla_agreement(pipeline.E, pipeline.nab, s)
        assert r.passed and r.residual <= 1e-9


class TestKoszul:
    def test_constant_one_is_exact(self, so2_pipe):
        E = so2_pipe.E
        s = random_section(E, np.random.default_rng(23))
        ones = ScalarField("base", {p: Jet(1.0, [0.0])
                                    for p in E.cover.points})
        assert check_leibniz_koszul(E, so2_pipe.nab, ones, s).residual == 0.0

    def test_zero_section_is_exact(self, so2_pipe):
        E = so2_pipe.E
        comps = {rid: MatrixField(rid, E.rank, 1, {
            p: JetMatrix(np.zeros((E.rank, 1)), np.zeros((1, E.rank, 1)))
            for p in E.cover.regions[rid]})
            for rid in E.cover.region_ids()}
        a = random_scalar_field("base", E.cover.points, 1,
                                np.random.default_rng(24))
        r = check_leibniz_koszul(E, so2_pipe.nab, a, AssociatedSection(comps))
        assert r.residual == 0.0

    def test_random_pairs(self, pipeline):
        rng = np.random.default_rng(25)
        s = random_section(pipeline.E, rng)
        a = random_scalar_field("base", pipeline.cover.points, 1, rng)
        r = check_leibniz_koszul(pipeline.E, pipeline.nab, a, s)
        assert r.passed and r.residual <= 1e-12

    def test_coordinate_field(self, so2_pipe):
        E = so2_pipe.E
        a = ScalarField("base", {
            p: Jet(float(so2_pipe.cover.coord("alpha", p)[0])
                   if p in so2_pipe.cover.regions["alpha"]
                   else float(so2_pipe.cover.coord("beta", p)[0]), [1.0])
            for p in E.cover.points})
        s = random_section(E, np.random.default_rng(26))
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
        forms = {rid: MatrixOneForm(rid, 2, 2, {
            p: sym[None, :, :].copy() for p in E.cover.regions[rid]})
            for rid in E.cover.region_ids()}
        with pytest.raises(PullbackImageError) as exc:
            pull_back_connection(E, so2_pipe.R, VectorConnection(forms))
        assert exc.value.point is not None
        assert exc.value.residual >= 0.5

    def test_non_injective_rejected(self, mobius_pipe):
        squash = rep_by_name("gl1_diag_powers(0)")
        with pytest.raises(PullbackImageError):
            pull_back_connection(mobius_pipe.E, squash, mobius_pipe.nab)


class TestFrame:
    def test_frame_sheaf_shares_cocycle(self, pipeline):
        P2, R2 = frame_sheaf(pipeline.E)
        assert R2.n == pipeline.E.rank
        assert np.array_equal(R2.phibar, np.eye(pipeline.E.rank ** 2))
        for pair, f in pipeline.E.cocycle.items():
            g = P2.cocycle[pair]
            assert all(f.data[p].max_abs_diff(g.data[p]) == 0.0
                       for p in f.points)

    def test_frame_sections_are_compatible(self, so2_pipe, shear_pipe):
        from sheafgauge import check_components
        for pipe in (so2_pipe, shear_pipe):
            for j in range(pipe.E.rank):
                s = frame_section(pipe.E, "alpha", j)
                assert check_components(pipe.E, s.components).residual <= 1e-10

    def test_twisted_frame_extension_shows_monodromy(self, mobius_pipe):
        # extending the alpha frame both ways around the flip cocycle
        # meets itself with opposite sign on the far overlap
        from sheafgauge import check_components
        E = mobius_pipe.E
        s = frame_section(E, "alpha", 0)
        r = check_components(E, s.components)
        assert r.residual == 2.0
        assert r.worst_point in E.cover.overlap_points("beta", "gamma")

    def test_roundtrip_on_induced(self, pipeline):
        r = check_frame_roundtrip(pipeline.E, pipeline.nab)
        assert r.passed and r.residual <= 1e-12

    def test_roundtrip_rejects_law_violation(self, shear_pipe):
        with pytest.raises(PreconditionError):
            check_frame_roundtrip(shear_pipe.E,
                                  zero_connection(shear_pipe.E))

    def test_frame_index_validated(self, so2_pipe):
        from sheafgauge import FieldMismatchError
        with pytest.raises(FieldMismatchError):
            frame_section(so2_pipe.E, "alpha", 5)
