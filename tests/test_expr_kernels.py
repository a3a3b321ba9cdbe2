"""Each instruction of a compiled program against the Jet operator it replaces.

A program computes on plain floats: every ``call1``/``call2`` instruction
holds a float kernel, and ``run_points`` runs each over all its sample
values, one call per entry, before the next instruction.  Each is run here as the one node of a program whose operands are
injected with any value and d/dt, by both drivers, and compared with
the Jet operator on the same operands: the value and the derivative
agree in ``float.hex``, or both sides fail and the program says so with
``ExprDomainError`` at the node's offset.  Operands include the edges
of the float range: signed zeros, the smallest subnormal, 1e154 (whose
square is near the largest float) and the largest magnitudes; a column
holds every combination of them, and a failing one stops the column at
its own entry.
"""

import itertools
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


def node_program(op: str, a, b=None) -> Program:
    """The node ``op`` as a program whose operands at the sample value k
    are the (value, d/dt) pairs ``a(k)`` and ``b(k)``, each injected by a
    leaf instruction on t."""
    kind, fn, _, _, _ = compiled_node(op)
    code = (("var", None, None, None, 0),
            ("call1", lambda t, _: a(t), 0, None, 1),
            ("const", None, 0.0, None, 2) if b is None else ("call1", lambda t, _: b(t), 0, None, 2),
            (kind, fn, 1, None if b is None else 2, NODE))
    return Program(code, (NODE,))


def run_node(op: str, a: tuple, b: tuple | None = None) -> Jet:
    """The node run by ``run`` on the operands ``a`` and ``b``."""
    program = node_program(op, lambda t: a, None if b is None else lambda t: b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return program.run(0.0)[0]


def run_column(op: str, a: list, b: list | None = None) -> list[tuple]:
    """The node run by ``run_points`` over a column: its operands at the
    k-th sample value, k, are ``a[k]`` and ``b[k]``."""
    program = node_program(op, lambda t: a[int(t)],
                           None if b is None else lambda t: b[int(t)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (values,), (ders,) = program.run_points(range(len(a)))
    return [(v.hex(), d.hex()) for v, d in zip(values, ders)]


def bits(j: Jet) -> tuple:
    return j.value.hex(), j.grad_tuple[0].hex()


def assert_same(op: str, want, a: tuple, b: tuple | None = None) -> None:
    """``want()`` is the Jet operator on the operands as jets; both
    drivers agree with it, ``run_points`` over a one-entry column."""
    try:
        expected = bits(want())
    except JET_FAILURES:
        for run in (lambda: run_node(op, a, b),
                    lambda: run_column(op, [a], None if b is None else [b])):
            with pytest.raises(ExprDomainError) as exc:
                run()
            assert exc.value.offset == NODE
        return
    assert bits(run_node(op, a, b)) == expected
    assert run_column(op, [a], None if b is None else [b]) == [expected]


def assert_same_column(op: str, want, entries: list) -> None:
    """``want(*entry)`` is the Jet operator on one entry's operands as
    jets.  ``run_points`` over the column of all entries agrees with it
    entry by entry up to the first entry where it fails, and fails there
    as the node fails on that entry alone."""
    a = [e[0] for e in entries]
    b = [e[1] for e in entries] if len(entries[0]) == 2 else None
    expected = []
    for k, entry in enumerate(entries):
        try:
            expected.append(bits(want(*entry)))
        except JET_FAILURES:
            with pytest.raises(ExprDomainError) as exc:
                run_column(op, a, b)
            with pytest.raises(ExprDomainError) as alone:
                run_node(op, *entry)
            assert exc.value.offset == alone.value.offset == NODE
            assert str(exc.value) == str(alone.value).replace("at t = 0", f"at t = {k}")
            break
    assert run_column(op, a[:len(expected)], b and b[:len(expected)]) == expected


def over_the_edges(op: str, want, entries: list) -> None:
    """One column of every entry that does not fail, then each failing
    entry between entries that do not."""
    def fails(entry) -> bool:
        try:
            want(*entry)
        except JET_FAILURES:
            return True
        return False

    ok = [e for e in entries if not fails(e)]
    assert_same_column(op, want, ok)
    for bad in (e for e in entries if fails(e)):
        assert_same_column(op, want, ok[:2] + [bad] + ok[:1])


def jets(*pairs) -> list[Jet]:
    return [Jet(v, (d,)) for v, d in pairs]


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


class TestColumnsOverTheEdges:
    @pytest.mark.parametrize("op", sorted(UNARY))
    def test_unary(self, op):
        over_the_edges(op, lambda a: UNARY[op](*jets(a)),
                       [(a,) for a in itertools.product(EDGES, EDGES)])

    @pytest.mark.parametrize("op", sorted(BINARY))
    def test_binary(self, op):
        pairs = list(itertools.product(EDGES, EDGES))
        over_the_edges(op, lambda a, b: BINARY[op](*jets(a, b)),
                       list(itertools.product(pairs, pairs)))

    def test_power(self):
        exponents = [(float(k), zero) for k in (-1075, -3, -1, 0, 1, 2, 308, 1024)
                     for zero in (0.0, -0.0)]
        over_the_edges("^", lambda a, b: jets(a)[0] ** int(b[0]),
                       list(itertools.product(itertools.product(EDGES, EDGES), exponents)))

    @pytest.mark.parametrize("b, message", [
        ((2.0, 1.0), "exponent depends on the variable"),
        ((2.5, 0.0), "exponent 2.5 is not an integer"),
        ((-1.0, 0.0), "zero base with negative exponent"),
    ])
    def test_power_checks_stop_the_column_at_their_entry(self, b, message):
        a = [(1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (3.0, 1.0)]
        bs = [(2.0, 0.0), (2.0, 0.0), b, (2.0, 0.0)]
        with pytest.raises(ExprDomainError, match=message) as exc:
            run_column("^", a, bs)
        assert exc.value.offset == NODE
        assert run_column("^", a[:2], bs[:2]) == [((1.0).hex(), (2.0).hex()),
                                                  ((4.0).hex(), (4.0).hex())]


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
