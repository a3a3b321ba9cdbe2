"""How a ``Jet`` stores its gradient.

The gradient lives in ``grad_tuple`` as a tuple of Python floats;
``gradient`` is the same numbers as a read-only float64 array, built on
first read and cached.  The constructor accepts and rejects exactly the
inputs the array-backed constructor did, with the same exception type
and message, and the operators give the bits that numpy arithmetic on
the gradient arrays gives (the reference below).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafgauge import DimensionMismatchError, Jet
from sheafgauge.jets import jet_mul

SHAPE_MESSAGE = "jet gradient must be a nonempty vector"
FINITE_MESSAGE = "jet components must be finite"


class TestGradientArray:
    def test_read_only_float64_equal_to_tuple(self):
        j = Jet(0.5, [1, 2.5, -3])
        g = j.gradient
        assert isinstance(g, np.ndarray)
        assert g.dtype == np.float64 and g.shape == (3,)
        assert not g.flags.writeable
        assert g.tolist() == list(j.grad_tuple) == [1.0, 2.5, -3.0]
        with pytest.raises(ValueError):
            g[0] = 7.0

    def test_same_object_on_every_read(self):
        j = Jet(0.5, (1.0, 2.0))
        first = j.gradient
        assert j.gradient is first
        assert j.gradient is first

    def test_cache_is_per_jet(self):
        a, b = Jet(1.0, [2.0]), Jet(1.0, [2.0])
        assert a.gradient is not b.gradient
        assert np.array_equal(a.gradient, b.gradient)

    def test_dim_and_repr_come_from_the_tuple(self):
        j = Jet(2, (1, 0, 0.25))
        assert j.dim == 3
        assert repr(j) == "Jet(2.0, [1.0, 0.0, 0.25])"


GRADIENT_INPUTS = [
    pytest.param(3, [3.0], id="int"),
    pytest.param(np.float32(0.1), [float(np.float32(0.1))], id="numpy-scalar"),
    pytest.param(np.int64(4), [4.0], id="numpy-int"),
    pytest.param(np.array(2.0), [2.0], id="0-d"),
    pytest.param([1, 2], [1.0, 2.0], id="int-list"),
    pytest.param((1, 2.5), [1.0, 2.5], id="tuple"),
    pytest.param([np.float32(0.1), np.int64(2)], [float(np.float32(0.1)), 2.0],
                 id="list-of-numpy-scalars"),
    pytest.param([True], [1.0], id="bool-list"),
    pytest.param(["1.5"], [1.5], id="numeric-string"),
    pytest.param(np.array([1, 2, 3]), [1.0, 2.0, 3.0], id="int-ndarray"),
    pytest.param(np.array([0.5, -0.25], dtype=np.float32), [0.5, -0.25],
                 id="float32-ndarray"),
    pytest.param(np.arange(4.0)[::2], [0.0, 2.0], id="strided-ndarray"),
]


class TestTupleHoldsPythonFloats:
    @pytest.mark.parametrize("gradient, expected", GRADIENT_INPUTS)
    def test_every_input_kind(self, gradient, expected):
        j = Jet(np.float32(1.5), gradient)
        assert type(j.grad_tuple) is tuple
        assert all(type(x) is float for x in j.grad_tuple)
        assert list(j.grad_tuple) == expected
        assert type(j.value) is float and j.value == 1.5

    def test_input_is_copied(self):
        src = [1.0, 2.0]
        arr = np.array([1.0, 2.0])
        a, b = Jet(0.0, src), Jet(0.0, arr)
        src[0] = 9.0
        arr[0] = 9.0
        assert a.grad_tuple == b.grad_tuple == (1.0, 2.0)

    def test_operator_results_hold_python_floats(self):
        a, b = Jet(1.5, [0.5, 2]), Jet(np.float64(-2.0), np.array([1, 3]))
        for r in (a + b, a - b, a * b, a / b, -a, a ** 3, a * 2, 2 - a,
                  1 / a, a.sin(), a.cos(), a.exp(), a + 1):
            assert all(type(x) is float for x in r.grad_tuple)
            assert type(r.value) is float


REJECTED = [
    pytest.param([[1.0, 2.0]], DimensionMismatchError, SHAPE_MESSAGE, id="2-d-list"),
    pytest.param(([1.0],), DimensionMismatchError, SHAPE_MESSAGE, id="2-d-tuple"),
    pytest.param(np.ones((1, 2)), DimensionMismatchError, SHAPE_MESSAGE, id="2-d-array"),
    pytest.param([np.array([1.0])], DimensionMismatchError, SHAPE_MESSAGE,
                 id="list-of-arrays"),
    pytest.param([], DimensionMismatchError, SHAPE_MESSAGE, id="empty-list"),
    pytest.param((), DimensionMismatchError, SHAPE_MESSAGE, id="empty-tuple"),
    pytest.param(np.zeros(0), DimensionMismatchError, SHAPE_MESSAGE, id="empty-array"),
    pytest.param(np.zeros((0, 2)), DimensionMismatchError, SHAPE_MESSAGE,
                 id="empty-2-d-array"),
    pytest.param([None], ValueError, FINITE_MESSAGE, id="none"),
    pytest.param(["a"], ValueError, "could not convert string to float: 'a'",
                 id="non-numeric-string"),
    pytest.param([1j], TypeError,
                 "float() argument must be a string or a real number, not 'complex'",
                 id="complex"),
    pytest.param([object()], TypeError,
                 "float() argument must be a string or a real number, not 'object'",
                 id="object"),
    pytest.param([10 ** 400], OverflowError, "int too large to convert to float",
                 id="huge-int"),
]


class TestRejectedInput:
    @pytest.mark.parametrize("gradient, kind, message", REJECTED)
    def test_same_type_and_message(self, gradient, kind, message):
        with pytest.raises(kind) as info:
            Jet(1.0, gradient)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("wrap", [list, tuple, np.array], ids=["list", "tuple", "array"])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_non_finite_gradient_entry(self, bad, wrap, index):
        g = [1.0, 2.0, 3.0]
        g[index] = bad
        with pytest.raises(ValueError) as info:
            Jet(1.0, wrap(g))
        assert str(info.value) == FINITE_MESSAGE

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     np.float64("nan"), "inf"])
    def test_non_finite_value(self, bad):
        with pytest.raises(ValueError) as info:
            Jet(bad, (1.0,))
        assert str(info.value) == FINITE_MESSAGE

    def test_shape_is_checked_before_finiteness(self):
        with pytest.raises(DimensionMismatchError):
            Jet(math.nan, [])


class TestImmutable:
    @pytest.mark.parametrize("name", list(Jet.__slots__) + ["gradient", "other"])
    def test_no_attribute_can_be_assigned(self, name):
        j = Jet(1.0, [2.0])
        with pytest.raises(AttributeError):
            setattr(j, name, None)
        j.gradient  # fill the cache, then try again
        with pytest.raises(AttributeError):
            setattr(j, name, np.zeros(1))
        assert j.value == 1.0 and j.grad_tuple == (2.0,)
        assert j.gradient.tolist() == [2.0]


# -- reference: the gradient as a numpy float64 array ----------------------

class Ref:
    """The jet arithmetic with the gradient held as a float64 array."""

    def __init__(self, value, gradient):
        self.value = float(value)
        self.gradient = np.array(gradient, dtype=float)

    @classmethod
    def of(cls, j: Jet) -> "Ref":
        return cls(j.value, list(j.grad_tuple))

    def add(self, o):
        return Ref(self.value + o.value, self.gradient + o.gradient)

    def sub(self, o):
        return Ref(self.value - o.value, self.gradient - o.gradient)

    def mul(self, o):
        u, v = self.value, o.value
        return Ref(u * v, u * o.gradient + v * self.gradient)

    def div(self, o):
        a, b = self.value, o.value
        return Ref(a / b, (self.gradient * b - a * o.gradient) / b ** 2)

    def neg(self):
        return Ref(-self.value, -self.gradient)

    def scaled(self, value, c):
        return Ref(value, c * self.gradient)

    def smul(self, c):
        return self.scaled(self.value * c, c)

    def pow(self, n):
        if n == 0:
            return Ref(1.0, np.zeros(self.gradient.size))
        return self.scaled(self.value ** n, n * (self.value ** (n - 1)))

    def sin(self):
        return self.scaled(math.sin(self.value), math.cos(self.value))

    def cos(self):
        return self.scaled(math.cos(self.value), -math.sin(self.value))

    def exp(self):
        e = math.exp(self.value)
        return self.scaled(e, e)

    def max_abs_diff(self, o):
        return max(abs(self.value - o.value),
                   float(np.max(np.abs(self.gradient - o.gradient))))


def bits(j) -> list[str]:
    g = list(j.grad_tuple) if isinstance(j, Jet) else j.gradient.tolist()
    return [float(j.value).hex()] + [float(x).hex() for x in g]


UNARY = {
    "neg": (lambda a: -a, Ref.neg),
    "sin": (Jet.sin, Ref.sin),
    "cos": (Jet.cos, Ref.cos),
    "exp": (Jet.exp, Ref.exp),
}
BINARY = {
    "add": (lambda a, b: a + b, Ref.add),
    "sub": (lambda a, b: a - b, Ref.sub),
    "mul": (lambda a, b: a * b, Ref.mul),
    "jet_mul": (jet_mul, Ref.mul),
    "div": (lambda a, b: a / b, Ref.div),
}

floats = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def jet_pairs(draw):
    n = draw(st.integers(1, 4))
    vec = st.lists(floats, min_size=n, max_size=n)
    return (Jet(draw(floats), draw(vec)), Jet(draw(floats), draw(vec)))


def assert_same(op, ref, args, ref_args):
    """``op`` gives the reference's bits, or fails where the reference
    leaves the floating-point range."""
    try:
        with np.errstate(all="ignore"):
            want = ref(*ref_args)
        ok = math.isfinite(want.value) and np.isfinite(want.gradient).all()
    except (OverflowError, ZeroDivisionError):
        ok = False
    if ok:
        assert bits(op(*args)) == bits(want)
    else:
        with pytest.raises((ValueError, OverflowError, ZeroDivisionError)):
            op(*args)


class TestBitsMatchArrayArithmetic:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(jet_pairs(), floats, st.integers(-6, 6))
    def test_operators(self, pair, c, n):
        a, b = pair
        ra, rb = Ref.of(a), Ref.of(b)
        const = Ref(c, np.zeros(a.dim))
        for op, ref in UNARY.values():
            assert_same(op, ref, (a,), (ra,))
        for op, ref in BINARY.values():
            assert_same(op, ref, (a, b), (ra, rb))
        assert_same(lambda j: j * c, lambda r: r.smul(c), (a,), (ra,))
        assert_same(lambda j: c * j, lambda r: r.smul(c), (a,), (ra,))
        assert_same(lambda j: j ** n, lambda r: r.pow(n), (a,), (ra,))
        assert_same(lambda j: j + c, lambda r: r.add(const), (a,), (ra,))
        assert_same(lambda j: c - j, lambda r: const.sub(r), (a,), (ra,))
        assert_same(lambda j: c / j, lambda r: const.div(r), (a,), (ra,))
        assert a.max_abs_diff(b).hex() == ra.max_abs_diff(rb).hex()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(jet_pairs())
    def test_gradient_array_matches_reference_array(self, pair):
        a, b = pair
        got = (a * b).gradient
        want = Ref.of(a).mul(Ref.of(b)).gradient
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
