"""Non-finite matrices are refused before numpy can warn about them.

``GroupModel.expand_stack`` checks its input before the matmul, so a
cocycle entry that overflows in the adjoint action ends in
``NonFiniteError`` rows, and numpy never writes a RuntimeWarning.
"""

import re
import warnings

import numpy as np
import pytest

from sheafgauge import (
    NonFiniteError,
    gl1_positive_model,
    gl_model,
    parse_scenario,
    run_checks,
    so2_model,
)
from sheafgauge.scenario import DEMO_SHEAR_FRAME


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
