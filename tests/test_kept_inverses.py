"""Each matrix field inverts its values at most once, under one rule.

A ``MatrixField`` keeps the determinants and inverses of its values,
read-only, from their first use on; ``mat_inv`` gives its output the
input's values as that output's inverses.  So eq7's gauge action,
``rho_dot_form(mat_inv(g), w) + mc(g)``, and ``check_lie_type``'s four
reads of one element each invert g once.  LAPACK calls are counted by
wrapping ``numpy.linalg``'s ``inv``, ``det`` and ``slogdet``.

Which values have an inverse is decided by ``MatrixField._inverses``
alone: every value before the first whose |det| is below ``DET_FLOOR``,
or every value of a field ``mat_inv`` made.  ``mat_inv``, ``mc``,
``rho_matrix`` and ``group_mul`` all read that answer.
"""

from collections import Counter

import numpy as np
import pytest

from helpers import stacked
from sheafgauge import (
    FieldMismatchError,
    JetMatrix,
    LieValuedOneForm,
    MatrixField,
    SingularMatrixError,
    SpanError,
    check_lie_type,
    gauge_form,
    gl_model,
    group_mul,
    mat_inv,
    mc,
    rho_matrix,
    so2_model,
    trivial_rep,
)
from sheafgauge.jets import DET_FLOOR

POINTS = range(6)


@pytest.fixture
def lapack(monkeypatch) -> Counter:
    counts = Counter()
    for name in ("inv", "det", "slogdet"):
        def counting(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


def element(seed: int = 3) -> MatrixField:
    rng = np.random.default_rng(seed)
    return stacked(MatrixField, "u", {
        p: JetMatrix(np.eye(2) * 2.0 + rng.uniform(-0.5, 0.5, (2, 2)),
                     rng.uniform(-1.0, 1.0, (1, 2, 2))) for p in POINTS})


def form(m: int) -> LieValuedOneForm:
    rng = np.random.default_rng(5)
    return stacked(LieValuedOneForm, "u", {p: rng.uniform(-1.0, 1.0, (1, m)) for p in POINTS})


class TestOneInversePerElement:
    def test_gauge_form_inverts_a_fresh_element_once(self, lapack):
        model = gl_model(2)
        g, w = element(), form(model.rank)
        gauge_form(model, g, w, "u")
        assert (lapack["inv"], lapack["slogdet"]) == (1, 0)

    def test_check_lie_type_inverts_each_element_once(self, lapack):
        g = element()
        out = check_lie_type(trivial_rep(2), [g])
        assert out["mc"].passed and out["rho"].passed
        assert (lapack["inv"], lapack["slogdet"]) == (1, 0)

    def test_rho_matrix_of_an_inverse_inverts_nothing(self, lapack):
        model = gl_model(2)
        gi = mat_inv(element())
        lapack.clear()
        pts, stack = rho_matrix(model, gi)
        assert lapack == Counter()
        # Ad(g^-1) is the inverse of Ad(g)
        _, ad = rho_matrix(model, element())
        assert pts == list(POINTS)
        assert np.max(np.abs(stack @ ad - np.eye(model.rank))) <= 1e-12

    def test_the_inverse_of_an_inverse_has_the_values_bit_for_bit(self):
        g = element()
        back = mat_inv(mat_inv(g))
        assert back.ordered_points() == g.ordered_points()
        assert [x.hex() for x in back.coeffs[:, 0].ravel().tolist()] \
            == [x.hex() for x in g.coeffs[:, 0].ravel().tolist()]

    def test_kept_arrays_are_read_only(self):
        g = element()
        gi = mat_inv(g)
        kept = [g._determinants(), g._inverses(), gi._determinants(), gi._inverses()]
        assert not any(a.flags.writeable for a in kept)
        with pytest.raises(AttributeError):
            g._inverse = None


class TestKeptInverseKeepsTheFailureOrder:
    """An inverse kept from an earlier failing call changes neither the
    error nor the point a later call names."""

    @staticmethod
    def failing_element() -> MatrixField:
        # point 0 leaves so(2): its conjugates and g^-1 dg are not
        # rotations; point 1 is exactly singular
        return stacked(MatrixField, "u", {
            0: JetMatrix(np.diag([2.0, 1.0]), np.diag([1.0, 0.0])[None]),
            1: JetMatrix(np.zeros((2, 2)), np.zeros((1, 2, 2))),
        })

    @pytest.mark.parametrize("op", [rho_matrix, mc])
    def test_span_error_comes_before_singular_matrix_error(self, op):
        fresh, kept = self.failing_element(), self.failing_element()
        with pytest.raises(SingularMatrixError) as singular:
            mat_inv(kept)
        assert singular.value.point == 1
        errors = []
        for g in (fresh, kept):
            with pytest.raises(SpanError) as exc:
                op(so2_model(), g)
            errors.append((str(exc.value), exc.value.point))
        assert errors[0] == errors[1] and errors[0][1] == 0


def scaled_at(scale: dict, seed: int = 3) -> MatrixField:
    """``element(seed)`` with its value and gradient at point p multiplied
    by ``scale.get(p, 1)``, so its determinant by the square of that."""
    g = element(seed)
    return stacked(MatrixField, "u", {p: JetMatrix(m.value * scale.get(p, 1.0),
                                                   m.grad * scale.get(p, 1.0))
                                      for p, m in g.data.items()})


class TestOneInvertibilityRule:
    """``mat_inv``, ``mc``, ``rho_matrix`` and ``group_mul`` refuse the
    same points: those from the first value whose |det| is below
    ``DET_FLOOR`` on, unless the field's inverses are kept by ``mat_inv``."""

    def test_rho_matrix_refuses_a_determinant_below_the_floor(self):
        # |det| about 4e-12 at points 2 and 4: not singular to LU, but
        # below DET_FLOOR, so rho_matrix refuses it as mc and mat_inv do
        g = scaled_at({2: 1e-6, 4: 1e-6})
        assert 0.0 < abs(np.linalg.det(g.data[2].value)) < DET_FLOOR
        for op in (lambda: rho_matrix(gl_model(2), g), lambda: mc(gl_model(2), g),
                   lambda: mat_inv(g)):
            with pytest.raises(SingularMatrixError) as exc:
                op()
            assert exc.value.point == 2

    def test_an_inverse_of_a_large_element_keeps_its_inverses(self):
        # |det g^-1| = 1e-10 is below the floor, but g is its kept inverse
        model = gl_model(2)
        g = stacked(MatrixField, "u", {p: JetMatrix(np.diag([1e5, 1e5]), m.grad)
                                       for p, m in element().data.items()})
        gi = mat_inv(g)
        assert abs(float(np.linalg.det(gi.data[0].value))) < DET_FLOOR
        back = mat_inv(gi)
        assert [x.hex() for x in back.coeffs[:, 0].ravel().tolist()] \
            == [x.hex() for x in g.coeffs[:, 0].ravel().tolist()]
        # g^-1 d(g^-1) = -dg g^-1, and Ad(g^-1) inverts Ad(g)
        want = -np.einsum("pkij,pjl->pkil", g.coeffs[:, 1:], gi.coeffs[:, 0])
        got = mc(model, gi).coeffs.reshape(want.shape)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        _, ad_inv = rho_matrix(model, gi)
        _, ad = rho_matrix(model, g)
        assert np.max(np.abs(ad_inv @ ad - np.eye(model.rank))) <= 1e-12

    def test_group_mul_refuses_the_first_product_below_the_floor(self):
        g = scaled_at({p: 1e-3 for p in POINTS})            # |det| about 4e-6
        h = scaled_at({1: 1e-3, 3: 1e-3}, seed=4)           # the product's about 1.6e-11
        with pytest.raises(FieldMismatchError,
                           match=r"^group product leaves the invertible range at 1 \(det "):
            group_mul(g, h)
        assert group_mul(g, scaled_at({}, seed=4)).ordered_points() == list(POINTS)
