"""Compiled expression programs: one instruction per distinct subtree.

``compile_exprs`` shares equal subtrees across the entries of a matrix,
so ``eval_matrix`` evaluates each of them once per point.  The results
are held bit for bit to a reference node-by-node walk written out here
on plain floats, with one-entry gradients in the jets' own operation
order: the same values, the same derivatives, and on failure the same
error kind at the same offset, at the first failing point and the
first failing entry in row-major order, which the error names.  The two drivers are held to
each other the same way: ``run_points`` over a list of sample values
gives what ``run`` gives at each of them, and raises the error ``run``
meets first.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafgauge import DimensionMismatchError, ExprDomainError, eval_expr, parse_expr
from sheafgauge.catalog import eval_matrix
from sheafgauge.expr import BinOp, Call, Neg, Num, Pi, Program, Var, compile_exprs


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


def reference(e, t: float) -> tuple[float, float]:
    """(value, derivative) of a tree at t by recursion, or Failure."""
    def out(v, g):
        if not (math.isfinite(v) and math.isfinite(g)):
            raise Failure(e.pos, "range")
        return v, g

    try:
        if isinstance(e, Num):
            return out(e.value, 0.0)
        if isinstance(e, Pi):
            return out(math.pi, 0.0)
        if isinstance(e, Var):
            return out(t, 1.0)
        if isinstance(e, Neg):
            v, g = reference(e.operand, t)
            return out(-v, -g)
        if isinstance(e, Call):
            v, g = reference(e.arg, t)
            if e.func == "sin":
                return out(math.sin(v), math.cos(v) * g)
            if e.func == "cos":
                return out(math.cos(v), -math.sin(v) * g)
            x = math.exp(v)
            return out(x, x * g)
        a, ga = reference(e.left, t)
        b, gb = reference(e.right, t)
        if e.op == "+":
            return out(a + b, ga + gb)
        if e.op == "-":
            return out(a - b, ga - gb)
        if e.op == "*":
            return out(a * b, a * gb + b * ga)
        if e.op == "/":
            if b == 0.0:
                raise Failure(e.pos, "division")
            q = b ** 2
            if q == 0.0:
                raise Failure(e.pos, "range")
            return out(a / b, (ga * b - a * gb) / q)
        if gb != 0.0:
            raise Failure(e.pos, "depends")
        if not b.is_integer():
            raise Failure(e.pos, "integer")
        k = int(b)
        if a == 0.0 and k < 0:
            raise Failure(e.pos, "zero base")
        if k == 0:
            return out(1.0, 0.0)
        return out(a ** k, (k * (a ** (k - 1))) * ga)
    except OverflowError:
        raise Failure(e.pos, "range") from None


def renumber(e, offsets):
    """The same tree with a fresh offset on every node, as if each
    occurrence had its own place in the source."""
    pos = next(offsets)
    if isinstance(e, Num):
        return Num(e.value, pos=pos)
    if isinstance(e, Pi):
        return Pi(pos=pos)
    if isinstance(e, Var):
        return Var(pos=pos)
    if isinstance(e, Neg):
        return Neg(renumber(e.operand, offsets), pos=pos)
    if isinstance(e, Call):
        return Call(e.func, renumber(e.arg, offsets), pos=pos)
    return BinOp(e.op, renumber(e.left, offsets), renumber(e.right, offsets), pos=pos)


def structure(e):
    """A key equal for equal subtrees, constants compared by their bits."""
    if isinstance(e, Num):
        return ("num", e.value.hex())
    if isinstance(e, (Pi, Var)):
        return (type(e).__name__,)
    if isinstance(e, Neg):
        return ("neg", structure(e.operand))
    if isinstance(e, Call):
        return ("call", e.func, structure(e.arg))
    return ("bin", e.op, structure(e.left), structure(e.right))


def subtrees(e):
    yield e
    for child in (getattr(e, name, None) for name in ("operand", "arg", "left", "right")):
        if child is not None:
            yield from subtrees(child)


leaves = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 1e-200, 1e200]).map(Num),
    st.just(Pi()), st.just(Var()), st.just(Var()))
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp"]), sub),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub)),
    max_leaves=8)
ops = st.sampled_from(["+", "-", "*", "/", "^"])


@st.composite
def matrices(draw):
    """A matrix of trees built from a small pool, so that entries share
    subtrees: an entry is a pool tree, or an operator joining a pool tree
    with another pool tree or a fresh one."""
    pool = draw(st.lists(trees, min_size=1, max_size=3))
    pick = st.sampled_from(pool)
    entry = st.one_of(pick, st.builds(BinOp, ops, pick, pick),
                      st.builds(BinOp, ops, trees, pick), st.builds(Neg, pick))
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    offsets = itertools.count()
    return [[renumber(draw(entry), offsets) for _ in range(n_cols)]
            for _ in range(n_rows)]


sample = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 40.0, 800.0]),
                   st.floats(-6.0, 6.0))
samples = st.lists(sample, min_size=1, max_size=3)
# none, one and many sample values
sample_lists = st.one_of(st.just([]), samples.map(lambda ts: ts[:1]),
                         st.lists(sample, min_size=2, max_size=12))


def evaluate(rows, ts):
    """eval_matrix at the given t values, with every warning an error."""
    coords = {p: np.array([t]) for p, t in enumerate(ts)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return eval_matrix(rows, "r", coords)


class TestAgainstReference:
    @given(matrices(), samples)
    @settings(max_examples=300, deadline=None)
    def test_matrix_matches_walk_bit_for_bit(self, rows, ts):
        try:
            want = [[[reference(e, t) for e in row] for row in rows] for t in ts]
        except Failure as f:
            with pytest.raises(ExprDomainError) as exc:
                evaluate(rows, ts)
            assert exc.value.offset == f.offset
            assert exc.value.entry == first_failing_entry(rows, ts)
            assert MESSAGES[f.kind] in str(exc.value)
            return
        field = evaluate(rows, ts)
        for p, grid in enumerate(want):
            jm = field.data[p]
            got = [[(float(jm.value[i, j]).hex(), float(jm.grad[0, i, j]).hex())
                    for j in range(len(row))] for i, row in enumerate(grid)]
            assert got == [[(v.hex(), g.hex()) for v, g in row] for row in grid]

    @given(matrices())
    @settings(max_examples=200, deadline=None)
    def test_one_instruction_per_distinct_subtree(self, rows):
        flat = [e for row in rows for e in row]
        distinct = {structure(s) for e in flat for s in subtrees(e)}
        program = compile_exprs(flat)
        assert len(program.code) == len(distinct)
        assert len(program.outputs) == len(flat)


def first_failing_entry(rows, ts) -> int:
    """The row-major index of the entry the reference walk fails on first."""
    flat = [e for row in rows for e in row]
    for t in ts:
        for k, e in enumerate(flat):
            try:
                reference(e, t)
            except Failure:
                return k
    raise AssertionError("the walk passes")


def hex_columns(columns) -> list:
    return [[x.hex() for x in column] for column in columns]


class TestDrivers:
    """``run_points`` against ``run``: the same bits on a passing program,
    and on a failing one the error ``run`` meets first over the values."""

    @given(matrices(), sample_lists)
    @settings(max_examples=300, deadline=None)
    def test_run_points_is_run_at_each_value(self, rows, ts):
        program = compile_exprs([e for row in rows for e in row])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                want = [program.run(t) for t in ts]
            except ExprDomainError as first:
                with pytest.raises(ExprDomainError) as exc:
                    program.run_points(ts)
                assert type(exc.value) is type(first)
                assert (exc.value.offset, str(exc.value)) == (first.offset, str(first))
                return
            values, ders = program.run_points(ts)
        assert hex_columns(values) == hex_columns(
            [[jets[i].value for jets in want] for i in range(len(program.outputs))])
        assert hex_columns(ders) == hex_columns(
            [[jets[i].grad_tuple[0] for jets in want] for i in range(len(program.outputs))])

    def test_a_later_instruction_failing_at_an_earlier_value_wins(self):
        ts = [0.0, 1.0, 10.0]
        chain = parse_expr("exp(exp(exp(t)))")       # overflows at t = 10 only
        with pytest.raises(ExprDomainError, match="range at t = 10$"):
            compile_exprs([chain]).run_points(ts)
        # the chain comes first in the code; the division fails first in ts
        program = compile_exprs([chain, parse_expr("1 / (t - 1)")])
        with pytest.raises(ExprDomainError, match="^division by zero$") as exc:
            program.run_points(ts)
        assert exc.value.offset == 2
        with pytest.raises(ExprDomainError) as first:
            for t in ts:
                program.run(t)
        assert (first.value.offset, str(first.value)) == (2, "division by zero")

    def test_operand_columns_are_released_after_their_last_reader(self):
        ts = [k / 96 for k in range(96)]

        def peak(terms: int) -> int:
            program = compile_exprs([parse_expr(" + ".join(["t"] * terms))])
            tracemalloc.start()
            try:
                program.run_points(ts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # holding every column, the peak grows with the program's length
        assert peak(400) < 3 * peak(40)


class TestFailurePath:
    @pytest.mark.parametrize("srcs,runs", [
        (["t", "sin(t)"], 0),                       # passes: run is never called
        (["1 / (t - 3)"], 4),
        (["exp(exp(exp(t)))", "1 / (t - 3)"], 3),   # overflows from t = 2 on
        (["1 / (t - 3)", "exp(exp(exp(t)))"], 3),   # the later tree fails first in ts
        (["t^0.5"], 1),
    ])
    def test_run_is_called_up_to_the_first_failing_value(self, monkeypatch, srcs, runs):
        ts = [0.0, 1.0, 2.0, 3.0, 4.0]
        calls = []
        run = Program.run

        def counting(self, t):
            calls.append(t)
            return run(self, t)

        monkeypatch.setattr(Program, "run", counting)
        program = compile_exprs([parse_expr(src) for src in srcs])
        if runs:
            with pytest.raises(ExprDomainError):
                program.run_points(ts)
        else:
            program.run_points(ts)
        assert calls == ts[:runs]


class TestSharing:
    def test_signed_zeros_stay_apart(self):
        program = compile_exprs([Num(0.0), Num(-0.0), Num(0.0, pos=5)])
        assert len(program.code) == 2
        assert program.outputs == (0, 1, 0)
        field = eval_matrix([[Num(0.0), Num(-0.0)]], "r", {0: np.array([1.0])})
        assert [float(x).hex() for x in field.data[0].value[0]] == ["0x0.0p+0", "-0x0.0p+0"]

    def test_dividing_by_negative_zero_keeps_its_own_node(self):
        rows = [[BinOp("/", Num(1.0), Num(0.0, pos=4), pos=2)],
                [BinOp("/", Num(1.0), Num(-0.0, pos=9), pos=7)]]
        with pytest.raises(ExprDomainError, match="division by zero") as exc:
            eval_matrix(rows, "r", {0: np.array([0.0])})
        assert exc.value.offset == 2

    def test_shared_subtree_keeps_its_first_offset(self):
        program = compile_exprs([parse_expr("sin(t) + 1"), parse_expr("2 * sin(t)")])
        assert [ins[4] for ins in program.code] == [4, 0, 9, 7, 0, 2]
        assert program.outputs == (3, 5)

    @pytest.mark.parametrize("rows,offset", [
        ([["1 + exp(exp(exp(t)))", "exp(exp(exp(t)))"]], 4),
        ([["exp(exp(exp(t)))", "1 + exp(exp(exp(t)))"]], 0),
        ([["t"], ["2 * exp(exp(exp(t)))"]], 4),
    ])
    def test_first_failure_in_row_major_order(self, rows, offset):
        with pytest.raises(ExprDomainError, match="floating-point range") as exc:
            eval_matrix(rows, "r", {0: np.array([1.0]), 1: np.array([6.0])})
        assert exc.value.offset == offset
        assert "t = 6" in str(exc.value)

    def test_each_instruction_belongs_to_the_first_tree_holding_it(self):
        program = compile_exprs([parse_expr(s) for s in
                                 ("sin(t) + 1", "2 * sin(t)", "sin(t)", "cos(t)")])
        # t, sin(t), 1, sin(t) + 1 | 2, 2 * sin(t) | (shared) | cos(t)
        assert [program.tree_of(i) for i in range(len(program.code))] == [0, 0, 0, 0, 1, 1, 3]

    @pytest.mark.parametrize("srcs,entry", [
        (["t", "1 / (t - t)"], 1),
        (["2 * (1 / (t - t))", "1 / (t - t)"], 0),
        (["t", "1 / (t - t)", "3 + 1 / (t - t)"], 1),
        (["t", "exp(exp(exp(t)))", "1 + exp(exp(exp(t)))"], 1),
    ])
    def test_an_error_names_the_first_tree_holding_its_node(self, srcs, entry):
        program = compile_exprs([parse_expr(s) for s in srcs])
        with pytest.raises(ExprDomainError) as one:
            program.run(9.0)
        with pytest.raises(ExprDomainError) as many:
            program.run_points([0.5, 9.0])
        assert one.value.entry == many.value.entry == entry

    def test_first_failing_point_in_points_order(self):
        # insertion order is not point_order: point 10 comes before 2
        coords = {2: np.array([8.0]), 10: np.array([7.0])}
        with pytest.raises(ExprDomainError, match="t = 7$") as exc:
            eval_matrix([["t", "exp(exp(t)) * exp(t)"]], "r", coords)
        assert exc.value.offset == 0

    def test_shared_entries_are_evaluated_once_per_point(self):
        program = compile_exprs([parse_expr(s) for s in
                                 ("cos(t)", "-sin(t)", "sin(t)", "cos(t)")])
        # t, cos(t), sin(t), -sin(t)
        assert len(program.code) == 4
        assert program.outputs == (1, 3, 2, 1)


class TestShapes:
    def test_non_node_is_a_type_error(self):
        with pytest.raises(TypeError, match=r"^not an expression node: 1\.0$"):
            compile_exprs([BinOp("+", Var(), 1.0)])
        with pytest.raises(TypeError, match="^not an expression node: 't'$"):
            eval_expr("t", 0.0)
        with pytest.raises(TypeError, match="not an expression node"):
            eval_matrix([[Var(), None]], "r", {0: np.array([0.0])})

    def test_unknown_operator_or_function_is_a_type_error(self):
        with pytest.raises(TypeError, match="not an expression node"):
            compile_exprs([BinOp("%", Var(), Var())])
        with pytest.raises(TypeError, match="not an expression node"):
            compile_exprs([Call("tan", Var())])

    def test_long_sum_needs_no_recursion(self):
        tree = parse_expr(" + ".join(["t"] * 5000))
        j = eval_expr(tree, 0.5)
        assert (j.value, j.gradient.tolist()) == (2500.0, [5000.0])
        assert len(compile_exprs([tree]).code) == 5000

    def test_ragged_rows_are_rejected(self):
        with pytest.raises(DimensionMismatchError, match="rows differ in length"):
            eval_matrix([["t", "1"], ["t"]], "r", {0: np.array([0.0])})

    def test_empty_matrix_is_rejected(self):
        with pytest.raises(DimensionMismatchError, match="rows differ in length"):
            eval_matrix([], "r", {0: np.array([0.0])})

    def test_no_points_gives_an_empty_field(self):
        field = eval_matrix([["t", "1"]], "r", {})
        assert (len(field), field.rows, field.cols) == (0, 1, 2)
