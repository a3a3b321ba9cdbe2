"""The ``Jet`` constructor's exact-float path.

A gradient that is a non-empty tuple of exact Python floats is stored as
given; anything else is converted item by item.  Either way the same
emptiness and finiteness checks run, with the same exception types and
messages, and the stored value and gradient hold Python floats only.
"""

import math

import numpy as np
import pytest

from sheafgauge import DimensionMismatchError, Jet, NonFiniteError

SHAPE_MESSAGE = "jet gradient must be a nonempty vector"
FINITE_MESSAGE = "jet components must be finite"
NON_FINITE = [pytest.param(math.nan, id="nan"), pytest.param(math.inf, id="+inf"),
              pytest.param(-math.inf, id="-inf")]


class Sub(float):
    """A float subclass: not an exact float."""


def exact(n: int) -> tuple:
    return tuple(0.5 * (k + 1) for k in range(n))


class TestExactFloatsAreChecked:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_finite_value(self, bad, n):
        with pytest.raises(NonFiniteError) as info:
            Jet(bad, exact(n))
        assert str(info.value) == FINITE_MESSAGE

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("n, index", [(n, i) for n in (1, 2, 3) for i in range(n)])
    def test_non_finite_gradient_entry(self, bad, n, index):
        g = list(exact(n))
        g[index] = bad
        g = tuple(g)
        assert all(type(x) is float for x in g)
        with pytest.raises(NonFiniteError) as info:
            Jet(1.0, g)
        assert str(info.value) == FINITE_MESSAGE

    def test_empty_tuple(self):
        with pytest.raises(DimensionMismatchError) as info:
            Jet(1.0, ())
        assert str(info.value) == SHAPE_MESSAGE


class TestExactFloatsAreKept:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_value_and_gradient_are_the_objects_given(self, n):
        v, g = 2.5, exact(n)
        j = Jet(v, g)
        assert j.value is v
        assert j.grad_tuple is g

    def test_signed_zero_and_subnormal_keep_their_bits(self):
        g = (-0.0, 5e-324, 1e308)
        j = Jet(-0.0, g)
        assert [x.hex() for x in (j.value,) + j.grad_tuple] == [
            x.hex() for x in (-0.0,) + g]


CONVERTED = [
    pytest.param(np.float64(1.5), 1.5, id="float64"),
    pytest.param(3, 3.0, id="int"),
    pytest.param(True, 1.0, id="bool"),
    pytest.param(Sub(0.25), 0.25, id="float-subclass"),
]


class TestOtherItemsAreConverted:
    @pytest.mark.parametrize("item, want", CONVERTED)
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_gradient_item(self, item, want, index):
        g = list(exact(3))
        g[index] = item
        g = tuple(g)
        j = Jet(1.0, g)
        assert all(type(x) is float for x in j.grad_tuple)
        assert j.grad_tuple[index] == want
        assert j.grad_tuple is not g

    @pytest.mark.parametrize("item, want", CONVERTED)
    def test_value(self, item, want):
        j = Jet(item, (1.0,))
        assert type(j.value) is float and j.value == want

    @pytest.mark.parametrize("item", [math.nan, math.inf])
    def test_non_finite_float_subclass(self, item):
        with pytest.raises(NonFiniteError) as info:
            Jet(1.0, (Sub(item),))
        assert str(info.value) == FINITE_MESSAGE
