"""Jet arithmetic: exact first-order Leibniz structure.

Expected numbers in the pinned cases were derived by hand expansion or
from the analytic derivative before being frozen here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import stacked
from sheafgauge import (
    DimensionMismatchError,
    FieldMismatchError,
    Jet,
    JetMatrix,
    MatrixField,
    ScalarField,
    SingularMatrixError,
    constant_matrix_field,
    d_field,
    jet_mul,
    mat_inv,
    mat_mul,
    mat_scale,
    point_order,
)

EPS = np.finfo(float).eps

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)
jets1 = st.builds(lambda v, g: Jet(v, [g]), finite, finite)


def jet_close(j: Jet, value, gradient, tol=1e-14):
    assert j.value == pytest.approx(value, abs=tol)
    assert np.allclose(j.gradient, gradient, atol=tol)


class TestJetMul:
    def test_identity_element(self):
        jet_close(jet_mul(Jet(1.0, [0.0]), Jet(5.0, [2.0])), 5.0, [2.0], tol=0)

    def test_square_of_coordinate(self):
        # t*t at t=3: value 9, derivative 2t = 6
        jet_close(jet_mul(Jet(3.0, [1.0]), Jet(3.0, [1.0])), 9.0, [6.0], tol=0)

    def test_hand_expanded_product(self):
        # 2*(-1) + 4*0.5 = 0
        jet_close(jet_mul(Jet(2.0, [0.5]), Jet(4.0, [-1.0])), 8.0, [0.0], tol=0)

    def test_gradient_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            jet_mul(Jet(1.0, [0.0]), Jet(1.0, [0.0, 0.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Jet(float("nan"), [0.0])
        with pytest.raises(ValueError):
            Jet(1.0, [float("inf")])

    @given(jets1, jets1)
    def test_commutative(self, a, b):
        assert jet_mul(a, b).max_abs_diff(jet_mul(b, a)) == 0.0

    @given(jets1, jets1, jets1)
    @settings(max_examples=200)
    def test_distributive_up_to_cancellation(self, a, b, c):
        # (a+b)*c == a*c + b*c; the error scale is the summand size,
        # not the (possibly cancelled) result size
        lhs = (a + b) * c
        rhs = a * c + b * c
        def mag(j):
            return max(abs(j.value), float(np.max(np.abs(j.gradient))))
        scale = max(1.0, mag(a), mag(b)) * max(1.0, mag(c))
        assert lhs.max_abs_diff(rhs) <= 8 * EPS * scale


class TestJetOperators:
    def test_power_matches_repeated_product(self):
        t = Jet(3.0, [1.0])
        jet_close(t ** 3, 27.0, [27.0], tol=1e-13)
        jet_close(t ** 0, 1.0, [0.0], tol=0)
        jet_close(t ** -1, 1 / 3, [-1 / 9], tol=1e-15)

    def test_division(self):
        jet_close(Jet(1.0, [0.0]) / Jet(2.0, [1.0]), 0.5, [-0.25], tol=1e-16)

    def test_trig_chain_rule(self):
        t = Jet(0.0, [1.0])
        jet_close(t.sin(), 0.0, [1.0], tol=0)
        jet_close(t.cos(), 1.0, [0.0], tol=0)
        jet_close(t.exp(), 1.0, [1.0], tol=0)

    def test_pythagorean_identity_at_several_angles(self):
        for tv in np.linspace(0.0, 2 * np.pi, 7):
            t = Jet(float(tv), [1.0])
            s = t.sin() * t.sin() + t.cos() * t.cos()
            jet_close(s, 1.0, [0.0], tol=4 * EPS)


def _field(region, values_grads):
    return stacked(ScalarField, region, {p: Jet(v, [g])
                                         for p, (v, g) in values_grads.items()})


class TestScalarFields:
    def test_d_of_constant_is_exactly_zero(self):
        f = _field("u", {p: (7.5, 0.0) for p in range(5)})
        w = d_field(f)
        assert all(np.all(w.data[p] == 0.0) for p in w.data)

    def test_d_of_coordinate(self):
        f = _field("u", {0: (2.0, 1.0)})
        assert np.array_equal(d_field(f).data[0], [1.0])

    def test_d_of_cos_at_zero(self):
        f = _field("u", {0: (1.0, 0.0)})   # cos(t) jet at t=0
        assert np.array_equal(d_field(f).data[0], [0.0])

    def test_leibniz_for_fields(self):
        rng = np.random.default_rng(7)
        pts = range(20)
        s = _field("u", {p: (rng.uniform(-2, 2), rng.uniform(-2, 2)) for p in pts})
        t = _field("u", {p: (rng.uniform(-2, 2), rng.uniform(-2, 2)) for p in pts})
        dst = d_field(stacked(ScalarField, "u", {p: jet_mul(s.data[p], t.data[p]) for p in pts}))
        for p in pts:
            want = s.data[p].value * d_field(t).data[p] \
                + t.data[p].value * d_field(s).data[p]
            assert np.max(np.abs(dst.data[p] - want)) <= 1e-14

    def test_d_commutes_with_restrict(self):
        rng = np.random.default_rng(8)
        f = _field("u", {p: (rng.uniform(-2, 2), rng.uniform(-2, 2)) for p in range(6)})
        sub = [1, 4]
        left, right = d_field(f.restrict(sub)), d_field(f)
        assert sorted(left.data) == sub
        for p in sub:
            assert np.array_equal(left.data[p], right.data[p])

    def test_region_mismatch_rejected(self):
        a = constant_matrix_field("u", [0], np.eye(2), 1)
        with pytest.raises(FieldMismatchError):
            mat_scale(a, _field("v", {0: (1.0, 0.0)}))
        with pytest.raises(FieldMismatchError):
            mat_scale(a, ScalarField.from_stack("u", [], np.zeros((0, 2))))

    def test_restrict_outside_domain_rejected(self):
        s = _field("u", {0: (1.0, 0.0)})
        with pytest.raises(FieldMismatchError):
            s.restrict([0, 1])


def rotation_field(region, angles):
    data = {}
    for p, t in angles.items():
        c, s = np.cos(t), np.sin(t)
        value = np.array([[c, -s], [s, c]])
        grad = np.array([[[-s, -c], [c, -s]]])
        data[p] = JetMatrix(value, grad)
    return stacked(MatrixField, region, data)


class TestMatrixFields:
    def test_identity_times_b_is_b(self):
        rng = np.random.default_rng(3)
        b = stacked(MatrixField, "u", {0: JetMatrix(rng.normal(size=(2, 2)),
                                                    rng.normal(size=(1, 2, 2)))})
        e = constant_matrix_field("u", [0], np.eye(2), 1)
        assert mat_mul(e, b).data[0].max_abs_diff(b.data[0]) == 0.0

    def test_1x1_product_reduces_to_jet_mul(self):
        a = stacked(MatrixField, "u", {0: JetMatrix([[2.0]], [[[0.5]]])})
        b = stacked(MatrixField, "u", {0: JetMatrix([[4.0]], [[[-1.0]]])})
        got = mat_mul(a, b).data[0].entry(0, 0)
        want = jet_mul(Jet(2.0, [0.5]), Jet(4.0, [-1.0]))
        assert got.max_abs_diff(want) == 0.0

    def test_2x2_product_matches_scalar_expansion(self):
        rng = np.random.default_rng(11)
        av, ag = rng.normal(size=(2, 2)), rng.normal(size=(1, 2, 2))
        bv, bg = rng.normal(size=(2, 2)), rng.normal(size=(1, 2, 2))
        a = stacked(MatrixField, "u", {0: JetMatrix(av, ag)})
        b = stacked(MatrixField, "u", {0: JetMatrix(bv, bg)})
        prod = mat_mul(a, b).data[0]
        for i in range(2):
            for j in range(2):
                acc = Jet(0.0, [0.0])
                for k in range(2):
                    acc = acc + jet_mul(a.data[0].entry(i, k), b.data[0].entry(k, j))
                assert prod.entry(i, j).max_abs_diff(acc) <= 1e-15

    def test_inverse_of_identity(self):
        e = constant_matrix_field("u", [0, 1], np.eye(3), 1)
        inv = mat_inv(e)
        for p in (0, 1):
            assert inv.data[p].max_abs_diff(e.data[p]) == 0.0

    def test_inverse_1x1_hand_value(self):
        a = stacked(MatrixField, "u", {0: JetMatrix([[2.0]], [[[1.0]]])})
        jet_close(mat_inv(a).data[0].entry(0, 0), 0.5, [-0.25], tol=1e-16)

    def test_inverse_diag_analytic(self):
        # diag(2+sin t, 1) at t=0 -> diag((0.5, [-0.25]), (1, [0]))
        a = stacked(MatrixField, "u", {0: JetMatrix(
            [[2.0, 0.0], [0.0, 1.0]], [[[1.0, 0.0], [0.0, 0.0]]])})
        inv = mat_inv(a).data[0]
        jet_close(inv.entry(0, 0), 0.5, [-0.25], tol=1e-15)
        jet_close(inv.entry(1, 1), 1.0, [0.0], tol=0)
        jet_close(inv.entry(0, 1), 0.0, [0.0], tol=0)

    def test_inverse_consistency_well_conditioned(self):
        rng = np.random.default_rng(5)
        pts = range(10)
        data = {p: JetMatrix(np.eye(3) + 0.3 * rng.normal(size=(3, 3)),
                             rng.normal(size=(1, 3, 3))) for p in pts}
        a = stacked(MatrixField, "u", data)
        prod = mat_mul(a, mat_inv(a))
        e = constant_matrix_field("u", pts, np.eye(3), 1)
        for p in pts:
            assert prod.data[p].max_abs_diff(e.data[p]) <= 1e-12

    def test_singular_matrix_reports_point(self):
        a = stacked(MatrixField, "u", {
            0: JetMatrix.constant(np.eye(2), 1),
            1: JetMatrix(np.zeros((2, 2)), np.zeros((1, 2, 2)))})
        with pytest.raises(SingularMatrixError) as err:
            mat_inv(a)
        assert err.value.point == 1

    def test_constant_field_has_zero_gradient(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        a = constant_matrix_field("u", [0, 1], m, 2)
        for p in (0, 1):
            assert np.array_equal(a.data[p].value, m)
            assert a.data[p].grad.shape == (2, 2, 2)
            assert not a.data[p].grad.any()

    def test_restrict_keeps_value_and_gradient(self):
        r = rotation_field("u", {p: 0.3 * p for p in range(6)})
        sub = [4, 1]
        left = r.restrict(sub)
        assert left.points == {1, 4} and left.region == "u"
        for p in sub:
            assert left.data[p].max_abs_diff(r.data[p]) == 0.0

    def test_scale_by_scalar_field_follows_leibniz(self):
        # d(s M) = ds M + s dM, checked on the rotation at angle t
        r = rotation_field("u", {0: 0.7})
        s = _field("u", {0: (3.0, -2.0)})
        out = mat_scale(r, s).data[0]
        m = r.data[0]
        assert np.array_equal(out.value, 3.0 * m.value)
        assert np.max(np.abs(out.grad - (-2.0 * m.value + 3.0 * m.grad))) <= 1e-15

    def test_shape_mismatch_rejected(self):
        a = constant_matrix_field("u", [0], np.eye(2), 1)
        b = constant_matrix_field("u", [0], np.eye(3), 1)
        with pytest.raises(FieldMismatchError):
            mat_mul(a, b)


def test_point_order_is_stringwise():
    assert point_order([10, 2, 1]) == [1, 10, 2]
    assert point_order(["b", "a"]) == ["a", "b"]
