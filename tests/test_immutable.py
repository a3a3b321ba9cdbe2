"""Immutable objects refuse deletion as they refuse assignment.

A refused ``del`` leaves the object whole: every attribute still reads
back the same object as before.
"""

import numpy as np
import pytest

from helpers import stacked
from sheafgauge import (
    Jet,
    JetMatrix,
    LieValuedOneForm,
    MatrixField,
    MatrixOneForm,
    OneForm,
    ScalarField,
)

CASES = [
    (lambda: Jet(0.5, [1.0, 2.0]), ["value", "grad_tuple", "gradient", "_gradient"]),
    (lambda: JetMatrix(np.eye(2), np.ones((1, 2, 2))), ["value", "grad"]),
    (lambda: stacked(ScalarField, "u", {0: Jet(1.0, [2.0])}), ["region", "data"]),
    (lambda: stacked(MatrixField, "u", {0: JetMatrix([[1.0]], [[[2.0]]])}),
     ["region", "data", "rows", "cols"]),
    (lambda: stacked(OneForm, "u", {0: [1.0, 2.0]}), ["region", "data", "coeffs"]),
    (lambda: stacked(MatrixOneForm, "u", {0: [[[1.0, 2.0]]]}), ["region", "data", "coeffs"]),
    (lambda: stacked(LieValuedOneForm, "u", {0: [[1.0, 2.0]]}), ["region", "data", "coeffs"]),
]


@pytest.mark.parametrize("build,names", CASES)
def test_del_is_refused_and_the_object_stays_readable(build, names):
    obj = build()
    before = {name: getattr(obj, name) for name in names}
    for name in names + ["no_such_attribute"]:
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(obj, name)
    for name in names:
        assert getattr(obj, name) is before[name]


@pytest.mark.parametrize("build,names", CASES)
def test_assignment_is_still_refused(build, names):
    obj = build()
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(obj, names[0], None)
