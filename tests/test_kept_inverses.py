"""Each matrix field inverts its values at most once.

A ``MatrixField`` keeps the determinants and inverses of its values,
read-only, from their first use on; ``mat_inv`` gives its output the
input's values as that output's inverses.  So eq7's gauge action,
``rho_dot_form(mat_inv(g), w) + mc(g)``, and ``check_lie_type``'s four
reads of one element each invert g once.  LAPACK calls are counted by
wrapping ``numpy.linalg``'s ``inv``, ``det`` and ``slogdet``.
"""

from collections import Counter

import numpy as np
import pytest

from sheafgauge import (
    JetMatrix,
    LieValuedOneForm,
    MatrixField,
    SingularMatrixError,
    SpanError,
    check_lie_type,
    gauge_form,
    gl_model,
    mat_inv,
    mc,
    rho_matrix,
    so2_model,
    trivial_rep,
)

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
    return MatrixField("u", 2, 2, {p: JetMatrix(np.eye(2) * 2.0 + rng.uniform(-0.5, 0.5, (2, 2)),
                                                rng.uniform(-1.0, 1.0, (1, 2, 2)))
                                   for p in POINTS})


def form(m: int) -> LieValuedOneForm:
    rng = np.random.default_rng(5)
    return LieValuedOneForm("u", {p: rng.uniform(-1.0, 1.0, (1, m)) for p in POINTS})


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
        return MatrixField("u", 2, 2, {
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
