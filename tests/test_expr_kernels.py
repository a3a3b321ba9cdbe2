"""Each instruction of a compiled program against the Jet operator it replaces.

A program computes on plain floats: every ``call1``/``call2`` instruction
holds a float kernel, and ``/`` and ``^`` are branches of
``Program.run``.  Each is run here as the one node of a program whose
operands are injected with any value and d/dt, and compared with the
Jet operator on the same operands: the value and the derivative agree
in ``float.hex``, or both sides fail and the program says so with
``ExprDomainError`` at the node's offset.  Operands include the edges
of the float range: signed zeros, the smallest subnormal, 1e154 (whose
square is near the largest float) and the largest magnitudes.
"""

import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheafgauge import ExprDomainError, Jet, NonFiniteError
from sheafgauge.expr import BinOp, Call, Neg, Num, Program, Var, compile_exprs
from sheafgauge.jets import jet_mul

NODE = 3          # offset, and instruction index, of the node under test
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e154, -1e154, 1e308, -1e308]
floats = st.one_of(st.sampled_from(EDGES), st.floats(-10.0, 10.0),
                   st.floats(allow_nan=False, allow_infinity=False))
JET_FAILURES = (OverflowError, ZeroDivisionError, NonFiniteError)

UNARY = {"sin": Jet.sin, "cos": Jet.cos, "exp": Jet.exp, "neg": Jet.__neg__}
BINARY = {"+": Jet.__add__, "-": Jet.__sub__, "*": jet_mul, "/": Jet.__truediv__}


def compiled_node(op: str) -> tuple:
    """The instruction ``compile_exprs`` emits for the root of a one-node tree."""
    if op == "neg":
        tree = Neg(Var())
    elif op in UNARY:
        tree = Call(op, Var())
    else:
        tree = BinOp(op, Var(), Num(2.0))
    return compile_exprs([tree]).code[-1]


def run_node(op: str, a: tuple, b: tuple | None = None) -> Jet:
    """The node ``op`` run as a program whose operands are (value, d/dt)
    pairs ``a`` and ``b``, each injected by a leaf instruction on t."""
    kind, fn, _, _, _ = compiled_node(op)
    code = (("var", None, None, None, 0),
            ("call1", lambda *_: a, 0, None, 1),
            ("const", None, 0.0, None, 2) if b is None else ("call1", lambda *_: b, 0, None, 2),
            (kind, fn, 1, None if b is None else 2, NODE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return Program(code, (NODE,)).run(0.0)[0]


def bits(j: Jet) -> tuple:
    return j.value.hex(), j.grad_tuple[0].hex()


def assert_same(op: str, want, a: tuple, b: tuple | None = None) -> None:
    """``want()`` is the Jet operator on the operands as jets."""
    try:
        expected = bits(want())
    except JET_FAILURES:
        with pytest.raises(ExprDomainError) as exc:
            run_node(op, a, b)
        assert exc.value.offset == NODE
        return
    assert bits(run_node(op, a, b)) == expected


class TestKernelsAreTheirJetOperators:
    @pytest.mark.parametrize("op", sorted(UNARY))
    @given(a=floats, da=floats)
    @example(a=710.0, da=1.0)        # exp overflows
    @example(a=1.0, da=1e308)        # the derivative overflows
    @settings(max_examples=150, deadline=None)
    def test_unary(self, op, a, da):
        assert_same(op, lambda: UNARY[op](Jet(a, (da,))), (a, da))

    @pytest.mark.parametrize("op", sorted(BINARY))
    @given(a=floats, da=floats, b=floats, db=floats)
    @example(a=1e308, da=1.0, b=1e308, db=1.0)     # value overflows
    @example(a=1.0, da=1.0, b=1e-160, db=0.0)      # b ** 2 underflows to 0
    @example(a=1.0, da=1.0, b=-0.0, db=0.0)        # division by zero
    @settings(max_examples=150, deadline=None)
    def test_binary(self, op, a, da, b, db):
        assert_same(op, lambda: BINARY[op](Jet(a, (da,)), Jet(b, (db,))),
                    (a, da), (b, db))

    @given(a=floats, da=floats,
           k=st.one_of(st.integers(-4, 4), st.sampled_from([-1075, 308, 1024])),
           zero=st.sampled_from([0.0, -0.0]))
    @example(a=0.0, da=1.0, k=-1, zero=0.0)        # zero base, negative exponent
    @example(a=1e154, da=1.0, k=2, zero=0.0)       # the derivative overflows
    @example(a=10.0, da=1.0, k=400, zero=0.0)      # the float power overflows
    @example(a=1.3, da=2.9, k=-3, zero=0.0)        # rounding follows the product order
    @settings(max_examples=200, deadline=None)
    def test_power(self, a, da, k, zero):
        assert_same("^", lambda: Jet(a, (da,)) ** k, (a, da), (float(k), zero))

    @pytest.mark.parametrize("b, message", [
        ((2.0, 1.0), "exponent depends on the variable"),
        ((2.5, 0.0), "exponent 2.5 is not an integer"),
        ((-1.0, 0.0), "zero base with negative exponent"),
    ])
    def test_power_checks(self, b, message):
        with pytest.raises(ExprDomainError, match=message) as exc:
            run_node("^", (0.0, 1.0), b)
        assert exc.value.offset == NODE


class TestLeaves:
    @given(floats)
    @settings(max_examples=100, deadline=None)
    def test_const_and_var(self, x):
        program = compile_exprs([Num(x), Var()])
        c, t = program.run(x)
        assert bits(c) == bits(Jet(x, (0.0,)))
        assert bits(t) == bits(Jet(x, (1.0,)))

    def test_const_stores_a_python_float(self):
        (instruction,) = compile_exprs([Num(3)]).code
        assert instruction[0] == "const" and type(instruction[2]) is float
