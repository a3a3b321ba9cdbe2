"""The ``Jet`` constructor's exact-float path.

A gradient that is a non-empty tuple of exact Python floats is stored as
given; anything else is converted item by item.  Either way the same
emptiness and finiteness checks run, with the same exception types and
messages, and the stored value and gradient hold Python floats only.
"""

import math

import numpy as np
import pytest

from sheafgauge import (
    SUITES,
    DimensionMismatchError,
    Jet,
    NonFiniteError,
    load_demo,
    parse_scenario,
    run_checks,
)
from sheafgauge import jets
from sheafgauge.scenario import DEMOS

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


class TestOneDirection:
    """A one-entry gradient, the one chart direction of every report's
    jets, has a path of its own; it converts, rejects and caches as the
    general path does."""

    @pytest.mark.parametrize("item, want", CONVERTED)
    def test_lone_entry_is_converted(self, item, want):
        g = (item,)
        j = Jet(1.0, g)
        assert type(j.grad_tuple[0]) is float and j.grad_tuple == (want,)
        assert j.grad_tuple is not g

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("value, entry", [("bad", 1.0), (1.0, "bad"), ("bad", "bad")])
    def test_non_finite_value_or_entry(self, bad, value, entry):
        v, e = (bad if x == "bad" else x for x in (value, entry))
        with pytest.raises(NonFiniteError) as info:
            Jet(v, (e,))
        assert str(info.value) == FINITE_MESSAGE

    def test_gradient_is_checked_before_the_value(self):
        with pytest.raises(DimensionMismatchError) as info:
            Jet("x", ())
        assert str(info.value) == SHAPE_MESSAGE
        with pytest.raises(ValueError):
            Jet("x", (1.0,))

    def test_gradient_array_is_built_on_first_read(self):
        j = Jet(0.5, (2.0,))
        with pytest.raises(AttributeError):
            j._gradient  # unset until read
        a = j.gradient
        assert a.dtype == np.float64 and a.tolist() == [2.0]
        assert not a.flags.writeable
        assert j.gradient is a and j._gradient is a

    @pytest.mark.parametrize("read_first", [False, True])
    def test_gradient_slot_cannot_be_set_or_deleted(self, read_first):
        j = Jet(0.5, (2.0,))
        if read_first:
            j.gradient
        for change in (lambda: setattr(j, "_gradient", np.zeros(1)),
                       lambda: delattr(j, "_gradient")):
            with pytest.raises(AttributeError, match="Jet is immutable"):
                change()
        assert j.gradient.tolist() == [2.0]


def _poly(*terms) -> str:
    """A sum of ``c * f(k * t + phase)`` terms."""
    return " + ".join(f"{c} * {f}({k} * t + {phase})" for c, f, k, phase in terms)


U1 = _poly((0.3, "sin", 2, 0.5), (-0.2, "cos", 3, 1.1), (0.1, "sin", 1, 2.3),
           (0.15, "cos", 4, 0.7))
F1 = _poly((0.4, "cos", 1, 0.2), (0.25, "sin", 3, 1.9), (-0.2, "cos", 2, 2.8))
V1 = _poly((-0.25, "cos", 2, 0.4), (0.2, "sin", 4, 1.3), (0.1, "cos", 1, 0.9))
U2 = _poly((0.2, "cos", 3, 0.6), (0.3, "sin", 1, 1.7), (-0.1, "sin", 4, 2.2))
F2 = _poly((-0.3, "sin", 2, 0.8), (0.35, "cos", 4, 0.1), (0.15, "sin", 1, 2.6))
V2 = _poly((0.25, "sin", 3, 1.4), (-0.15, "cos", 1, 0.3), (0.2, "sin", 2, 2.9))

# Three arcs of 48 points; all three share the points 16 .. 23.
# g(alpha, gamma) is written out as g(alpha, beta) g(beta, gamma).
THREE_ARCS = f"""name = three-arcs

[space]
points = 48
region alpha = 0 .. 31
region beta = 16 .. 47
region gamma = 32 .. 23

[group]
kind = gl(2)

[cocycle alpha beta]
row = exp({U1}); {F1}
row = 0; exp({V1})

[cocycle beta gamma]
row = exp({U2}); {F2}
row = 0; exp({V2})

[cocycle alpha gamma]
row = exp({U1}) * exp({U2}); exp({U1}) * ({F2}) + ({F1}) * exp({V2})
row = 0; exp({V1}) * exp({V2})

[representation]
name = trivial(2)
"""


class TestReportsStayOnTheOneDirectionPath:
    """No report converts a gradient: every jet it builds comes from a
    one-entry tuple of an exact float.  A kernel that handed ``Jet``
    numpy scalars or lists would still give the same report, only
    slower; with the general path's converter refusing, it fails here."""

    @pytest.fixture(autouse=True)
    def refuse_conversion(self, monkeypatch):
        def refuse(gradient):
            raise AssertionError(f"a report converted the gradient {gradient!r}")
        monkeypatch.setattr(jets, "_float_tuple", refuse)

    @pytest.mark.parametrize("demo", sorted(DEMOS))
    def test_demos_in_suite_all(self, demo):
        report = run_checks(load_demo(demo), "all")
        assert {r.name: r.status for r in report.results()} == dict.fromkeys(
            SUITES["all"], "pass")

    def test_long_expressions_over_a_triple_overlap(self):
        report = run_checks(parse_scenario(THREE_ARCS), "cocycle")
        assert {r.name: r.status for r in report.results()} == dict.fromkeys(
            SUITES["cocycle"], "pass")
