"""Group models: multiplication, adjoint action, logarithmic differential."""

import itertools
import random

import numpy as np
import pytest

from helpers import rank, stacked
from sheafgauge import (
    DimensionMismatchError,
    GroupModel,
    Jet,
    JetMatrix,
    LieValuedOneForm,
    MatrixField,
    NonFiniteError,
    ScenarioError,
    SpanError,
    ad_action,
    catalog_elements,
    check_logarithmic_rule,
    circle_cover,
    constant_matrix_field,
    gauge_form,
    gl1_positive_model,
    gl_model,
    group_mul,
    mc,
    model_by_name,
    random_element,
    rho_dot_form,
    rho_matrix,
    so2_model,
    torus_model,
)
from sheafgauge.groups import LOG_RULE_TOL

# One model of each kind the gauge action must respect.
GAUGE_MODELS = (gl_model(1), gl_model(2), so2_model(), gl1_positive_model(), torus_model(2))


def rotation_field(region, angles):
    data = {}
    for p, t in angles.items():
        c, s = np.cos(t), np.sin(t)
        data[p] = JetMatrix([[c, -s], [s, c]], [[[-s, -c], [c, -s]]])
    return stacked(MatrixField, region, data)


def scalar_field_1x1(region, pairs):
    return stacked(MatrixField, region,
                   {p: JetMatrix([[v]], [[[g]]]) for p, (v, g) in pairs.items()})


@pytest.fixture(scope="module")
def small_cover():
    return circle_cover(8, {"u": range(8)})


E11 = np.diag([1.0, 0.0])
E22 = np.diag([0.0, 1.0])
SCALES = (1e-20, 1.0, 1e150)


class TestGroupModel:
    def test_gl2_structure_constants_shape(self):
        m = gl_model(2)
        assert m.structure_constants.shape == (4, 4, 4)
        assert m.rank == 4 and m.ambient == 2

    def test_gl2_bracket_oracle(self):
        # [e01, e10] = e00 - e11 in the row-major elementary basis
        m = gl_model(2)
        c = m.structure_constants[1, 2]
        assert np.allclose(c, [1.0, 0.0, 0.0, -1.0])

    # The rank test refuses a basis when the squared sine of the angle
    # between one matrix and the span of those before it is at most
    # RANK_TOL, whatever the scale of the basis.
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("basis", [
        [np.eye(2), 2 * np.eye(2)],
        [np.eye(2), np.zeros((2, 2))],
        [np.zeros((2, 2)), np.eye(2)],
        # sin^2 of the angle is about 1e-12; the two matrices commute, so
        # only the rank test can refuse them
        [E11, E11 + 1e-6 * E22],
    ])
    def test_dependent_basis_rejected(self, basis, scale):
        with pytest.raises(SpanError, match="linearly dependent"):
            GroupModel("bad", 2, scale * np.array(basis))

    @pytest.mark.parametrize("scale", SCALES)
    def test_nearly_dependent_basis_above_the_bound_accepted(self, scale):
        # sin^2 of the angle is about 1e-8
        m = GroupModel("ok", 2, scale * np.array([E11, E11 + 1e-4 * E22]))
        assert m.rank == 2 and not m.structure_constants.any()

    @pytest.mark.parametrize("entry", [1e-11, 1e150])
    def test_one_element_basis_accepted_at_any_scale(self, entry):
        m = GroupModel("ok", 1, [[[entry]]])
        (coeff,), res = m.expand_stack(np.array([[[3.0 * entry]]]))
        assert m.rank == 1 and res == 0.0
        assert np.allclose(coeff, [3.0], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_basis_raises_a_package_error(self, entry):
        with pytest.raises(NonFiniteError, match="lie basis matrices must be finite"):
            GroupModel("bad", 1, [[[entry]]])

    @pytest.mark.parametrize("k", [1, 2])
    def test_empty_basis_raises_a_package_error(self, k):
        with pytest.raises(DimensionMismatchError, match=r"with m >= 1$"):
            GroupModel("bad", k, np.zeros((0, k, k)))

    def test_bracket_leaving_span_rejected(self):
        # span{e01} is not closed under ... it is abelian; use {e00, e01+e10}
        e = np.zeros((2, 2, 2))
        e[0, 0, 0] = 1.0
        e[1, 0, 1] = e[1, 1, 0] = 1.0
        with pytest.raises(SpanError):
            GroupModel("bad", 2, e)

    def test_expand_roundtrip(self):
        m = so2_model()
        (coeff,), res = m.expand_stack(np.array([[[0.0, -2.5], [2.5, 0.0]]]))
        assert res <= 1e-14
        assert np.allclose(coeff, [2.5])
        assert np.allclose(np.tensordot(coeff, m.lie_basis, 1), [[0.0, -2.5], [2.5, 0.0]])

    def test_model_by_name(self):
        assert model_by_name("gl(3)").ambient == 3
        assert model_by_name("so(2)").kind == "so(2)"
        assert model_by_name("gl1+").ambient == 1
        assert model_by_name("torus(2)").rank == 2
        with pytest.raises(ScenarioError):
            model_by_name("sp(4)")


class TestGroupMul:
    def test_unit_times_h(self, small_cover):
        m = so2_model()
        h = rotation_field("u", {p: 0.2 * p for p in range(8)})
        e = m.unit_field("u", small_cover.regions["u"], 1)
        prod = group_mul(e, h)
        for p in range(8):
            assert prod.data[p].max_abs_diff(h.data[p]) == 0.0

    def test_g_times_inverse(self):
        from sheafgauge import mat_inv
        g = rotation_field("u", {p: 0.2 * p + 0.1 for p in range(8)})
        prod = group_mul(g, mat_inv(g))
        for p in range(8):
            assert prod.data[p].max_abs_diff(JetMatrix.constant(np.eye(2), 1)) <= 1e-12

    def test_so2_angle_addition(self):
        # R(a) R(b) = R(a+b), gradients included
        a = rotation_field("u", {0: 0.7})
        b = rotation_field("u", {0: 0.5})
        half = rotation_field("u", {0: 1.2})
        prod = group_mul(a, b)
        # both factors carry d/dt = 1, so the sum rotates twice as fast
        want = JetMatrix(half.data[0].value, 2.0 * half.data[0].grad)
        assert prod.data[0].max_abs_diff(want) <= 1e-15

    def test_singular_product_rejected(self):
        g = scalar_field_1x1("u", {0: (1e-6, 0.0)})
        h = scalar_field_1x1("u", {0: (1e-6, 0.0)})
        with pytest.raises(Exception):
            group_mul(g, h)


class TestAdjoint:
    def test_unit_acts_trivially(self):
        m = gl_model(2)
        a = constant_matrix_field("u", [0, 1], np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
        e = m.unit_field("u", [0, 1], 1)
        out = ad_action(m, e, a)
        for p in (0, 1):
            assert out.data[p].max_abs_diff(a.data[p]) == 0.0

    def test_so2_is_abelian(self):
        m = so2_model()
        g = rotation_field("u", {0: 0.9})
        j = constant_matrix_field("u", [0], np.array([[0.0, -1.0], [1.0, 0.0]]), 1)
        out = ad_action(m, g, j)
        assert out.data[0].max_abs_diff(j.data[0]) <= 1e-15

    def test_gl2_diagonal_scales_e12(self):
        m = gl_model(2)
        g = constant_matrix_field("u", [0], np.array([[2.0, 0.0], [0.0, 1.0]]), 1)
        e12 = constant_matrix_field("u", [0], np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
        out = ad_action(m, g, e12)
        assert np.allclose(out.data[0].value, [[0.0, 2.0], [0.0, 0.0]])

    def test_leaving_span_rejected(self):
        m = torus_model(2)
        g = rotation_field("u", {0: 0.7})
        a = constant_matrix_field("u", [0], np.diag([1.0, 0.0]), 1)
        with pytest.raises(SpanError) as err:
            ad_action(m, g, a)
        assert err.value.point == 0

    def test_preserves_brackets(self, small_cover):
        # Ad(g)[a, b] = [Ad(g)a, Ad(g)b] over catalog elements
        m = gl_model(2)
        rng = np.random.default_rng(17)
        a = constant_matrix_field("u", small_cover.regions["u"],
                                  rng.normal(size=(2, 2)), 1)
        b = constant_matrix_field("u", small_cover.regions["u"],
                                  rng.normal(size=(2, 2)), 1)
        for g in catalog_elements(m, small_cover, "u"):
            ga = ad_action(m, g, a)
            gb = ad_action(m, g, b)
            for p in small_cover.regions["u"]:
                br = a.data[p].value @ b.data[p].value \
                    - b.data[p].value @ a.data[p].value
                gbr = g.data[p].value @ br @ np.linalg.inv(g.data[p].value)
                got = ga.data[p].value @ gb.data[p].value \
                    - gb.data[p].value @ ga.data[p].value
                assert np.max(np.abs(gbr - got)) <= 1e-10


def rho_at(model, g) -> dict:
    """Ad(g) per point, read from ``rho_matrix``'s (points, stack)."""
    pts, stack = rho_matrix(model, g)
    return dict(zip(pts, stack))


class TestRhoMatrix:
    def test_unit_gives_identity(self):
        m = gl_model(2)
        e = m.unit_field("u", [0], 1)
        assert np.array_equal(rho_at(m, e)[0], np.eye(4))

    def test_abelian_models_give_identity(self):
        g = rotation_field("u", {0: 1.3})
        assert np.allclose(rho_at(so2_model(), g)[0], [[1.0]])
        a = scalar_field_1x1("u", {0: (3.7, 0.2)})
        assert np.allclose(rho_at(gl1_positive_model(), a)[0], [[1.0]])

    def test_gl2_diagonal_oracle(self):
        # conjugation by diag(2,1) scales e01 by 2 and e10 by 1/2
        m = gl_model(2)
        g = constant_matrix_field("u", [0], np.diag([2.0, 1.0]), 1)
        assert np.allclose(rho_at(m, g)[0], np.diag([1.0, 2.0, 0.5, 1.0]))

    def test_homomorphism_on_catalog(self, small_cover):
        m = gl_model(2)
        elems = catalog_elements(m, small_cover, "u")
        for g, h in itertools.product(elems, repeat=2):
            rg, rh = rho_at(m, g), rho_at(m, h)
            rgh = rho_at(m, group_mul(g, h))
            for p in small_cover.regions["u"]:
                assert np.max(np.abs(rgh[p] - rg[p] @ rh[p])) <= 1e-10


class TestMaurerCartan:
    def test_unit_gives_zero_form(self):
        m = gl_model(2)
        e = m.unit_field("u", [0, 1], 1)
        w = mc(m, e)
        assert all(np.all(w.data[p] == 0.0) for p in w.data)

    def test_constant_element_gives_zero_form(self):
        m = gl_model(2)
        g = constant_matrix_field("u", [0], np.array([[2.0, 1.0], [0.0, 3.0]]), 1)
        assert np.all(mc(m, g).data[0] == 0.0)

    def test_scalar_analytic_value(self):
        # a(t) = 2 + sin t at t=0: a'(0)/a(0) = 1/2
        m = gl1_positive_model()
        a = scalar_field_1x1("u", {0: (2.0, 1.0)})
        assert np.allclose(mc(m, a).data[0], [[0.5]])

    def test_rotation_gives_constant_J_coefficient(self):
        m = so2_model()
        g = rotation_field("u", {p: 0.3 * p + 0.1 for p in range(8)})
        w = mc(m, g)
        for p in range(8):
            assert np.max(np.abs(w.data[p] - [[1.0]])) <= 1e-15

    def test_form_shape_and_rank(self):
        m = gl_model(2)
        g = rotation_field("u", {0: 0.4})
        w = mc(m, g)
        assert w.data[0].shape == (1, 4)
        assert rank(w) == 4 and w.dim == 1

    def test_leaving_span_rejected(self):
        shear = stacked(MatrixField, "u", {0: JetMatrix(
            [[1.0, 0.5], [0.0, 1.0]], [[[0.0, 1.0], [0.0, 0.0]]])})
        with pytest.raises(SpanError):
            mc(torus_model(2), shear)


class TestLogarithmicRule:
    def test_unit_right_factor_exact_zero(self):
        m = so2_model()
        s = rotation_field("u", {p: 0.2 * p for p in range(6)})
        e = m.unit_field("u", range(6), 1)
        assert check_logarithmic_rule(m, s, e).residual == 0.0

    def test_so2_doubling(self):
        # abelian: mc(s*s) = 2 mc(s)
        m = so2_model()
        s = rotation_field("u", {p: 0.2 * p + 0.05 for p in range(6)})
        res = check_logarithmic_rule(m, s, s)
        assert res.residual <= 1e-12
        lhs = mc(m, group_mul(s, s))
        rhs = mc(m, s)
        for p in range(6):
            assert np.max(np.abs(lhs.data[p] - 2.0 * rhs.data[p])) <= 1e-12

    def test_all_catalog_pairs_all_kinds(self, small_cover):
        for m in (gl1_positive_model(), so2_model(), gl_model(2)):
            elems = catalog_elements(m, small_cover, "u")
            for s, t in itertools.product(elems, repeat=2):
                r = check_logarithmic_rule(m, s, t)
                assert r.passed, (m.kind, r.residual)

    def test_inverse_rule(self, small_cover):
        # mc(g^-1) = -rho(g).mc(g)
        from sheafgauge import mat_inv
        for m in (gl1_positive_model(), so2_model(), gl_model(2)):
            for g in catalog_elements(m, small_cover, "u"):
                lhs = mc(m, mat_inv(g))
                rhs = rho_dot_form(m, g, mc(m, g))
                for p in lhs.data:
                    assert np.max(np.abs(lhs.data[p] + rhs.data[p])) <= 1e-9


class TestRhoDotForm:
    def test_unit_leaves_form(self):
        m = gl_model(2)
        e = m.unit_field("u", [0], 1)
        w = stacked(LieValuedOneForm, "u", {0: [[0.1, 0.2, 0.3, 0.4]]})
        out = rho_dot_form(m, e, w)
        assert np.array_equal(out.data[0], w.data[0])

    def test_zero_form_stays_zero(self):
        m = gl_model(2)
        g = constant_matrix_field("u", [0], np.diag([2.0, 1.0]), 1)
        w = stacked(LieValuedOneForm, "u", {0: np.zeros((1, 4))})
        assert np.all(rho_dot_form(m, g, w).data[0] == 0.0)

    def test_gl2_diagonal_doubles_e12_coefficient(self):
        m = gl_model(2)
        g = constant_matrix_field("u", [0], np.diag([2.0, 1.0]), 1)
        w = stacked(LieValuedOneForm, "u", {0: [[0.0, 1.0, 0.0, 0.0]]})
        out = rho_dot_form(m, g, w)
        assert np.allclose(out.data[0], [[0.0, 2.0, 0.0, 0.0]])

    def test_matches_ad_action_on_combined_matrix(self, small_cover):
        m = gl_model(2)
        rng = np.random.default_rng(23)
        coeff = rng.normal(size=4)
        w = stacked(LieValuedOneForm, "u", {p: coeff[None, :]
                                            for p in small_cover.regions["u"]})
        for g in catalog_elements(m, small_cover, "u"):
            out = rho_dot_form(m, g, w)
            a = constant_matrix_field("u", small_cover.regions["u"],
                                      np.tensordot(coeff, m.lie_basis, 1), 1)
            conj = ad_action(m, g, a)
            for p in out.data:
                assert np.max(np.abs(np.tensordot(out.data[p][0], m.lie_basis, 1)
                                     - conj.data[p].value)) <= 1e-10

    @pytest.mark.parametrize("model", GAUGE_MODELS, ids=lambda m: m.kind)
    def test_applies_each_points_rho_matrix_entry(self, model, small_cover):
        # each chart direction's coefficient row transforms by Ad(g) at its point
        w = random_form(model, small_cover, np.random.default_rng(24))
        for g in catalog_elements(model, small_cover, "u"):
            pts, rho = rho_matrix(model, g)
            out = rho_dot_form(model, g, w)
            assert out.ordered_points() == pts
            for k, p in enumerate(pts):
                want = (rho[k] @ w.data[p].T).T
                assert np.max(np.abs(out.data[p] - want)) <= 1e-14


def random_form(model, cover, rng):
    pts = sorted(cover.regions["u"], key=str)
    return LieValuedOneForm.from_stack("u", pts, rng.normal(size=(len(pts), 1, model.rank)))


class TestGaugeForm:
    @pytest.mark.parametrize("model", GAUGE_MODELS, ids=lambda m: m.kind)
    def test_unit_returns_the_form_bit_for_bit(self, model, small_cover):
        w = random_form(model, small_cover, np.random.default_rng(31))
        out = gauge_form(model, model.unit_field("u", small_cover.regions["u"], 1), w, "u")
        assert out.ordered_points() == w.ordered_points()
        assert np.array_equal(out.coeffs, w.coeffs)

    @pytest.mark.parametrize("model", GAUGE_MODELS, ids=lambda m: m.kind)
    def test_is_a_right_action(self, model, small_cover):
        rng, forms = random.Random(32), np.random.default_rng(32)
        for _ in range(3):
            s = random_element(model, small_cover, "u", rng)
            t = random_element(model, small_cover, "u", rng)
            w = random_form(model, small_cover, forms)
            once = gauge_form(model, group_mul(s, t), w, "u")
            twice = gauge_form(model, t, gauge_form(model, s, w, "u"), "u")
            assert np.max(np.abs(once.coeffs - twice.coeffs)) <= LOG_RULE_TOL

    def test_empty_form_gives_mc_relabelled(self):
        m = gl_model(2)
        g = MatrixField.from_stack("u", [], np.zeros((0, 2, 2, 2)))
        out = gauge_form(m, g, LieValuedOneForm.from_stack("u", [], np.zeros((0, 1, 4))), "v")
        assert (out.region, len(out)) == ("v", 0)


class TestSpanCoeffs:
    def test_coefficients_of_a_stack_in_the_span(self):
        m = so2_model()
        mats = np.stack([2.0 * m.lie_basis, -m.lie_basis])
        assert np.array_equal(m.span_coeffs(mats, ["a", "b"], "x"), [[[2.0]], [[-1.0]]])

    def test_names_the_first_bad_point_in_the_given_order(self):
        m = so2_model()
        off = np.eye(2)[None]                       # not a rotation generator
        mats = np.stack([m.lie_basis, 3.0 * off, off])
        with pytest.raises(SpanError, match=r"^probe leaves span\(lie_basis\) at 'c' ") as exc:
            m.span_coeffs(mats, ["z", "c", "a"], "probe")
        assert exc.value.point == "c"
        assert exc.value.residual == pytest.approx(3.0)

