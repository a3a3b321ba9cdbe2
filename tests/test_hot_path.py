"""The per-point constructors' finiteness check and the expression evaluator.

``Jet``, ``JetMatrix`` and the per-point arrays of the form fields must
reject NaN, +inf and -inf wherever they occur and accept empty and
integer-typed input.  ``eval_expr`` is held bit for bit to a reference
evaluator written out here with numpy arithmetic on one-entry
gradients: the same value, the same derivative, and on failure the same
error kind at the same offset, without a warning on the way.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rank, stacked, to_source
from sheafgauge import (
    DimensionMismatchError,
    ExprDomainError,
    Jet,
    JetMatrix,
    LieValuedOneForm,
    MatrixOneForm,
    OneForm,
    eval_expr,
    parse_expr,
)
from sheafgauge.expr import BinOp, Call, Neg, Num, Pi, Var
from sheafgauge.jets import _all_finite

BAD = [math.nan, math.inf, -math.inf]


def _with(shape, index, bad):
    a = np.ones(shape)
    a[index] = bad
    return a


class TestFiniteness:
    @pytest.mark.parametrize("bad", BAD)
    def test_all_finite_is_exact(self, bad):
        for shape in ((1,), (3,), (2, 2), (3, 2, 2)):
            for flat in range(int(np.prod(shape))):
                index = np.unravel_index(flat, shape)
                assert not _all_finite(_with(shape, index, bad))
            assert _all_finite(np.ones(shape))
        big = np.finfo(float).max
        assert _all_finite(np.array([big, -big, 5e-324, -0.0]))

    def test_all_finite_accepts_empty_and_integer_arrays(self):
        assert _all_finite(np.zeros(0))
        assert _all_finite(np.empty((0, 3)))
        assert _all_finite(np.arange(6).reshape(2, 3))

    @pytest.mark.parametrize("bad", BAD)
    def test_jet_value(self, bad):
        with pytest.raises(ValueError, match="jet components must be finite"):
            Jet(bad, [1.0])

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_jet_gradient(self, bad, index):
        with pytest.raises(ValueError, match="jet components must be finite"):
            Jet(1.0, _with(3, index, bad))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("index", [(0, 0), (0, 1), (1, 1)])
    def test_jet_matrix_value(self, bad, index):
        with pytest.raises(ValueError, match="JetMatrix components must be finite"):
            JetMatrix(_with((2, 2), index, bad), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("index", [(0, 0, 0), (1, 0, 1), (1, 1, 1)])
    def test_jet_matrix_grad(self, bad, index):
        with pytest.raises(ValueError, match="JetMatrix components must be finite"):
            JetMatrix(np.eye(2), _with((2, 2, 2), index, bad))

    @pytest.mark.parametrize("bad", BAD)
    def test_one_form(self, bad):
        with pytest.raises(ValueError, match="one-form coefficients must be finite"):
            stacked(OneForm, "r", {0: [1.0, 2.0], 1: _with(2, 1, bad)})

    @pytest.mark.parametrize("bad", BAD)
    def test_matrix_one_form(self, bad):
        with pytest.raises(ValueError,
                           match="matrix one-form coefficients must be finite"):
            stacked(MatrixOneForm, "r", {0: np.zeros((1, 2, 2)),
                                         1: _with((1, 2, 2), (0, 1, 0), bad)})

    @pytest.mark.parametrize("bad", BAD)
    def test_lie_valued_one_form(self, bad):
        with pytest.raises(ValueError,
                           match="lie-valued one-form coefficients must be finite"):
            stacked(LieValuedOneForm, "r", {0: np.zeros((1, 4)), 1: _with((1, 4), (0, 3), bad)})

    def test_empty_per_point_arrays_are_accepted(self):
        assert stacked(OneForm, "r", {0: []}).dim == 0
        assert stacked(MatrixOneForm, "r", {0: np.zeros((0, 2, 2))}).dim == 0
        assert rank(stacked(LieValuedOneForm, "r", {0: np.zeros((1, 0))})) == 0
        with pytest.raises(DimensionMismatchError):
            Jet(1.0, [])

    def test_integer_input_is_accepted_as_float(self):
        j = Jet(3, [1, 2])
        assert (j.value, j.gradient.tolist()) == (3.0, [1.0, 2.0])
        assert j.gradient.dtype == float and not j.gradient.flags.writeable
        m = JetMatrix([[1, 2], [3, 4]], np.zeros((1, 2, 2), dtype=int))
        assert m.value.dtype == float and m.grad.dtype == float
        assert not (m.value.flags.writeable or m.grad.flags.writeable)
        assert stacked(OneForm, "r", {0: [1, 2]}).data[0].dtype == float
        assert stacked(MatrixOneForm, "r", {0: [[[3]]]}).data[0].dtype == float
        assert stacked(LieValuedOneForm, "r", {0: [[1, 2]]}).data[0].dtype == float


# -- the evaluator against its reference -------------------------------------

class Failure(Exception):
    def __init__(self, offset: int, kind: str):
        super().__init__(kind, offset)
        self.offset, self.kind = offset, kind


# substring of the ExprDomainError message for each failure kind
MESSAGES = {
    "range": "floating-point range",
    "division": "division by zero",
    "depends": "exponent depends on the variable",
    "integer": "is not an integer",
    "zero base": "zero base with negative exponent",
}


def reference(e, t):
    """(value, gradient) of a tree at t, or Failure(offset, kind)."""
    with np.errstate(all="ignore"):
        return _reference(e, t)


def _reference(e, t):
    def out(v, g):
        if not (math.isfinite(v) and np.isfinite(g).all()):
            raise Failure(e.pos, "range")
        return float(v), g

    try:
        if isinstance(e, Num):
            return out(e.value, np.zeros(1))
        if isinstance(e, Pi):
            return out(math.pi, np.zeros(1))
        if isinstance(e, Var):
            return out(t, np.ones(1))
        if isinstance(e, Neg):
            v, g = _reference(e.operand, t)
            return out(-v, -g)
        if isinstance(e, Call):
            v, g = _reference(e.arg, t)
            if e.func == "sin":
                return out(math.sin(v), math.cos(v) * g)
            if e.func == "cos":
                return out(math.cos(v), -math.sin(v) * g)
            x = math.exp(v)
            return out(x, x * g)
        a, ga = _reference(e.left, t)
        b, gb = _reference(e.right, t)
        if e.op == "+":
            return out(a + b, ga + gb)
        if e.op == "-":
            return out(a - b, ga - gb)
        if e.op == "*":
            return out(a * b, a * gb + b * ga)
        if e.op == "/":
            if b == 0.0:
                raise Failure(e.pos, "division")
            return out(a / b, (ga * b - a * gb) / (b ** 2))
        if gb[0] != 0.0:
            raise Failure(e.pos, "depends")
        if not b.is_integer():
            raise Failure(e.pos, "integer")
        k = int(b)
        if a == 0.0 and k < 0:
            raise Failure(e.pos, "zero base")
        if k == 0:
            return out(1.0, np.zeros(1))
        return out(a ** k, k * (a ** (k - 1)) * ga)
    except OverflowError:
        raise Failure(e.pos, "range") from None


def evaluate(tree, t):
    """eval_expr with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return eval_expr(tree, t)


def assert_same(src: str, t: float):
    tree = parse_expr(src)
    try:
        want = reference(tree, t)
    except Failure as f:
        with pytest.raises(ExprDomainError) as exc:
            evaluate(tree, t)
        assert exc.value.offset == f.offset, (src, t)
        assert MESSAGES[f.kind] in str(exc.value), (src, t)
        return
    got = evaluate(tree, t)
    assert got.value.hex() == want[0].hex(), (src, t)
    assert [x.hex() for x in got.gradient.tolist()] == \
        [x.hex() for x in want[1].tolist()], (src, t)


leaves = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.25, 1e-200, 1e200]).map(Num),
    st.just(Pi()), st.just(Var()), st.just(Var()))
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp"]), sub),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub)),
    max_leaves=12)
samples = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 40.0, 800.0]),
                    st.floats(-6.0, 6.0))


class TestEvaluatorAgainstReference:
    @pytest.mark.parametrize("src,t", [
        ("2.5", 0.3), ("pi", 0.3), ("t", 0.3), ("-t", 0.3), ("--t", -1.5),
        ("sin(t)", 0.3), ("cos(t)", 0.3), ("exp(t)", 0.3),
        ("t + 2", 0.3), ("t - 2", 0.3), ("t * t", 0.3), ("1 / t", 0.3),
        ("t ^ 3", 0.3), ("t ^ -2", 0.3), ("t ^ 0", 0.3), ("(1 + t) ^ (2 - 1)", 0.3),
        ("t ^ 0.5", 0.3), ("t ^ t", 0.3), ("t ^ -1", 0.0), ("1 / (t - t)", 0.3),
        ("1 + 1 / (t * 1e-200)", 1e-200), ("(t * 1e200) * 1e200", 1.0),
        ("exp(exp(exp(t)))", 6.0), ("t ^ 100000", 2.0), ("-(t * 1e200 * 1e200)", 1.0),
        ("1 / (t * 1e-170)", 1.0), ("sin(t) / (cos(t) ^ 2 + 1)", 0.7),
    ])
    def test_each_node_kind_and_error(self, src, t):
        assert_same(src, t)

    @given(trees, samples)
    @settings(max_examples=400, deadline=None)
    def test_random_trees(self, tree, t):
        assert_same(to_source(tree), t)

    def test_pinned_values(self):
        j = eval_expr(parse_expr("t * sin(t) - 1 / t"), 0.5)
        assert j.value == 0.5 * math.sin(0.5) - 2.0
        # d(t sin t) = t cos t + sin t, d(1/t) = -1/t^2, in evaluation order
        assert j.gradient.tolist() == [(0.5 * math.cos(0.5) + math.sin(0.5)) - -4.0]
        assert eval_expr(parse_expr("pi"), 3.0).gradient.tolist() == [0.0]

    def test_unknown_node_is_a_type_error(self):
        with pytest.raises(TypeError, match="not an expression node"):
            eval_expr("t", 0.0)
        with pytest.raises(TypeError, match="not an expression node"):
            eval_expr(BinOp("+", Var(), 1.0), 0.0)
