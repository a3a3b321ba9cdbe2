"""Non-finite matrices are refused before numpy can warn about them.

``GroupModel.expand_stack`` checks its input before the matmul, so a
cocycle entry that overflows in the adjoint action ends in
``NonFiniteError`` rows, and numpy never writes a RuntimeWarning.  A
determinant beyond the float range is inf, above every floor; so is a
residual, above every threshold; and a matrix product that overflows is
refused by the field constructor.  None of them writes a warning.
"""

import re
import warnings

import numpy as np
import pytest

from helpers import by_key
from sheafgauge import (
    NonFiniteError,
    constant_matrix_field,
    field_residual,
    gl1_positive_model,
    gl_model,
    group_mul,
    mat_inv,
    mat_mul,
    mat_scale,
    parse_scenario,
    run_checks,
    so2_model,
)
from sheafgauge.scenario import DEMO_MOBIUS, DEMO_SHEAR_FRAME


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("model", [gl_model(2), so2_model(), gl1_positive_model()],
                         ids=lambda m: m.kind)
def test_expand_stack_refuses_non_finite_matrices(model, bad):
    k = model.ambient
    mats = np.zeros((3, 2, k, k))
    mats[1, 1, k - 1, 0] = bad
    message = re.escape(f"in the {model.kind} basis must be finite")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=message):
            model.expand_stack(mats)


def test_overflow_in_the_adjoint_action_gives_error_rows_without_warnings():
    scn = parse_scenario(DEMO_SHEAR_FRAME.replace("row = 1; t", "row = 1; -1e300"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_checks(scn, "connection")
    assert [r.name for r in report.results()] == [
        "connection.eq7", "induced.eq10", "koszul.eq8"]
    for r in report.results():
        assert r.status == "error" and r.error.startswith("NonFiniteError: ")


def test_overflowing_determinant_in_mc_writes_no_warning():
    # det(diag(a, a^2)) overflows at a = -1e150; the tiny entries of the
    # inverse transition still fail their own keys at point 8
    text = DEMO_MOBIUS.replace("[cocycle alpha beta]\nrow = 1",
                               "[cocycle alpha beta]\nrow = -1e150")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_checks(parse_scenario(text))
    errors = [r.name for r in report.results() if r.status == "error"]
    assert errors == ["liehom.def1.mc", "liehom.def1.rho", "connection.eq7",
                      "induced.eq10", "koszul.eq8", "thm3.tensorial",
                      "cor1.roundtrip", "cor2.roundtrip"]
    assert all(r.passed for r in report.results() if r.name not in errors)
    assert all(by_key(report)[k].error.startswith("SingularMatrixError: ") for k in errors)


def test_overflowing_determinant_is_above_the_floor():
    big = constant_matrix_field("u", [0, 1], [[1e200, 0.0], [0.0, 1e200]], 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv = mat_inv(big)
        assert group_mul(big, inv).data[0].value.tolist() == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("op", [lambda c: mat_mul(c, c), lambda c: mat_scale(c, 1e200)],
                         ids=["mat_mul", "mat_scale"])
def test_overflowing_matrix_product_is_refused_without_warnings(op):
    c = constant_matrix_field("u", [0, 1], [[1e200]], 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            op(c)


def test_residual_beyond_the_float_range_is_inf_without_warnings():
    a = constant_matrix_field("u", [0, 1], [[1e308]], 1)
    b = constant_matrix_field("u", [0, 1], [[-1e308]], 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert field_residual(a, b) == (float("inf"), 0)
