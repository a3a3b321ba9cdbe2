"""Closed-form expressions in one variable, parsed and jet-evaluated.

Grammar (whitespace free between tokens):

    expr   :=  term  (('+' | '-') term)*          left associative
    term   :=  unary (('*' | '/') unary)*         left associative
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?                  right associative
    atom   :=  NUMBER | 'pi' | 't'
             | ('sin' | 'cos' | 'exp') '(' expr ')'
             | '(' expr ')'

so '^' binds tighter than unary minus, which binds tighter than '*'
and '/'.  Exponents may be any subexpression syntactically but must
evaluate to a constant integer.  Syntax errors carry the byte offset
and the set of token kinds that would have been accepted, and nesting
deeper than ``MAX_DEPTH`` levels is a syntax error at the first token
beyond the bound.  Evaluation errors (division by zero, fractional or
varying exponents, values or derivatives beyond the floating-point
range) carry the offset of the offending node.

Evaluation seeds the variable with a unit gradient, so the result jet
holds the value and the exact derivative of the expression.  Trees are
evaluated by compiling them (``compile_exprs``) into one flat program
that holds each distinct subtree once, in left-to-right post-order;
``eval_expr`` is the program of a single tree.  A matrix compiled as one
program evaluates a subexpression shared by several of its entries once
per point.  A run computes on plain floats: each instruction's float
kernel takes the operations, in the order, of the jet operator it
stands for, and each instruction's result is wrapped in a ``Jet`` whose
validating constructor is that instruction's finiteness check.

A program runs at one sample value (``Program.run``) or over many at
once (``Program.run_points``, forward mode over a stack of values:
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 3);
``Program`` says which callers use which.  A failure has one rule, the
one of ``run``; ``run_points`` finds its first failing value by running
``run`` at each value in order.
"""

from __future__ import annotations

import math
import operator
import re
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import ExprDomainError, NonFiniteError, ParseError
from .jets import Jet

FUNCTIONS = ("cos", "exp", "sin")
# Nesting bound of the recursive-descent parser: each level costs about
# five Python frames, so this stays well inside the default recursion limit.
MAX_DEPTH = 100

_TOKEN_RE = re.compile(r"""
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_]+)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Pi:
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var:
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: object
    pos: int = field(default=-1, compare=False)


Expr = (Num, Pi, Var, Neg, BinOp, Call)

_ATOM_EXPECTED = ("'('", "'-'", "function", "number", "'pi'", "'t'")


@dataclass(frozen=True)
class _Token:
    kind: str        # num, name, op, end
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    out = []
    i = 0
    n = len(src)
    while i < n:
        if src[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ParseError(f"unexpected character {src[i]!r}", i,
                             expected=_ATOM_EXPECTED)
        if m.lastgroup == "num":
            out.append(_Token("num", m.group(), i))
        elif m.lastgroup == "name":
            out.append(_Token("name", m.group(), i))
        else:
            out.append(_Token("op", m.group(), i))
        i = m.end()
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def fail(self, expected) -> None:
        t = self.peek()
        what = "end of input" if t.kind == "end" else repr(t.text)
        raise ParseError(f"unexpected {what}", t.pos, expected=tuple(sorted(expected)))

    def parse(self):
        e = self.expr()
        if self.peek().kind != "end":
            self.fail(("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"))
        return e

    def expr(self):
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            t = self.next()
            e = BinOp(t.text, e, self.term(), pos=t.pos)
        return e

    def term(self):
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            t = self.next()
            e = BinOp(t.text, e, self.unary(), pos=t.pos)
        return e

    def unary(self):
        # every nesting (parentheses, calls, exponents, unary minus) passes here
        t = self.peek()
        if self.depth >= MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", t.pos)
        self.depth += 1
        try:
            if t.kind == "op" and t.text == "-":
                self.next()
                return Neg(self.unary(), pos=t.pos)
            return self.power()
        finally:
            self.depth -= 1

    def power(self):
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            return BinOp("^", base, self.unary(), pos=t.pos)
        return base

    def atom(self):
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Num(float(t.text), pos=t.pos)
        if t.kind == "name":
            if t.text == "pi":
                self.next()
                return Pi(pos=t.pos)
            if t.text == "t":
                self.next()
                return Var(pos=t.pos)
            if t.text in FUNCTIONS:
                self.next()
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(t.text, arg, pos=t.pos)
            raise ParseError(f"unknown name {t.text!r}", t.pos,
                             expected=("function", "'pi'", "'t'"))
        if t.kind == "op" and t.text == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        self.fail(_ATOM_EXPECTED)

    def expect(self, op: str) -> None:
        t = self.peek()
        if t.kind != "op" or t.text != op:
            self.fail((f"'{op}'",))
        self.next()


def parse_expr(src: str):
    """Parse a source string into an expression tree."""
    return _Parser(src).parse()


# Float kernels: each maps the operands' values and d/dt, (a, da) or
# (a, da, b, db), to the result's (value, d/dt) by the operations, in the
# order, of the Jet operator named beside it, so a program builds the
# jets that operator would, bit for bit.  ``-`` is a unary node
# (negation) or a binary one.  ``/`` and ``^`` check their operands and
# raise ExprDomainError without an offset, which the driver supplies.
def _sin(a, da):              # Jet.sin
    return math.sin(a), math.cos(a) * da


def _cos(a, da):              # Jet.cos
    return math.cos(a), -math.sin(a) * da


def _exp(a, da):              # Jet.exp
    e = math.exp(a)
    return e, e * da


def _neg(a, da):              # Jet.__neg__
    return -a, -da


def _add(a, da, b, db):       # Jet.__add__
    return a + b, da + db


def _sub(a, da, b, db):       # Jet.__sub__
    return a - b, da - db


def _mul(a, da, b, db):       # jets.jet_mul
    return a * b, a * db + b * da


def _div(a, da, b, db):       # Jet.__truediv__
    if b == 0.0:
        raise ExprDomainError("division by zero")
    q = b ** 2
    if q == 0.0:
        # every d/dt would be x / 0: infinite or NaN
        raise NonFiniteError("jet components must be finite")
    return a / b, (da * b - a * db) / q


def _pow(a, da, b, db):       # Jet.__pow__
    if db:
        raise ExprDomainError("exponent depends on the variable")
    if not b.is_integer():
        raise ExprDomainError(f"exponent {b!r} is not an integer")
    k = int(b)
    if a == 0.0 and k < 0:
        raise ExprDomainError("zero base with negative exponent")
    if k == 0:
        return 1.0, 0.0
    return a ** k, k * (a ** (k - 1)) * da


_UNARY = {"sin": _sin, "cos": _cos, "exp": _exp}
_BINARY = {"*": _mul, "+": _add, "-": _sub, "/": _div, "^": _pow}


_first, _second = operator.itemgetter(0), operator.itemgetter(1)


def _each(fn, columns) -> tuple[list, list]:
    """A float kernel run entry by entry over its operand columns."""
    pairs = list(map(fn, *columns))
    return list(map(_first, pairs)), list(map(_second, pairs))


def _last_readers(code: tuple, outputs: tuple) -> list:
    """Entry j is the index of the last instruction that reads instruction
    j; None for an output and for an instruction nothing reads."""
    last = [None] * len(code)
    for i, (op, _, x, y, _) in enumerate(code):
        if op == "call1":
            last[x] = i
        elif op == "call2":
            last[x] = last[y] = i
    for j in outputs:
        last[j] = None
    return last


@dataclass(frozen=True)
class Program:
    """A list of expression trees compiled into one flat instruction list.

    ``code`` holds one ``(op, fn, x, y, pos)`` instruction per distinct
    subtree, in the left-to-right post-order of the trees, so operands
    come before the instructions that read them: ``op`` is ``const``,
    ``var``, ``call1`` or ``call2``, ``x`` and ``y`` index earlier
    instructions (``x`` is the float of a ``const``), ``fn`` is the
    float kernel of a ``call1`` or ``call2`` and ``pos`` is the source
    offset where the subtree first occurs.  ``outputs`` indexes the
    instruction of each tree's root.  An error names the tree that holds
    the failing instruction first (``tree_of``) as its ``entry``.

    There are two drivers, and the number of sample values a caller has
    picks one.  ``run(t)`` runs every instruction at one value.
    ``run_points(ts)`` runs each instruction over all values, one float
    kernel call per value, before the next instruction, and drops each
    operand's columns after its last reader, so a run holds the columns
    of the instructions still to be read, not those of the whole
    program.  ``catalog.eval_matrix`` runs each matrix through
    ``run_points``.  ``run`` stays for the one-value calls of
    ``eval_expr``, which ``scenario.build_seed`` makes at every point:
    ``run_points`` has a fixed cost per instruction (its columns and
    last-reader table) that one value does not pay back.  Both compute
    on plain floats and wrap each instruction's result at each value in
    a one-direction ``Jet``.  That jet is the instruction's check: its
    validating constructor rejects a non-finite value or derivative.
    Both give the same numbers, bit for bit.  There is one failure
    rule, and ``run`` holds it: a failing instruction raises
    ExprDomainError at its offset.  When an instruction of
    ``run_points`` fails, it reruns the program through ``run`` at each
    value in order and raises the first error.
    """

    code: tuple
    outputs: tuple

    def run(self, t: float) -> list[Jet]:
        """The jets of the trees at the sample value t, in order.

        Each instruction builds one jet; a value or derivative beyond
        the floating-point range raises ExprDomainError at the offset of
        the first instruction whose operation left it.
        """
        t = float(t)
        vals, ders, jets = [], [], []
        push_val, push_der, push_jet = vals.append, ders.append, jets.append
        try:
            for op, fn, x, y, pos in self.code:
                if op == "call2":
                    v, d = fn(vals[x], ders[x], vals[y], ders[y])
                elif op == "call1":
                    v, d = fn(vals[x], ders[x])
                elif op == "const":
                    v, d = x, 0.0
                else:
                    v, d = t, 1.0
                push_jet(Jet(v, (d,)))
                push_val(v)
                push_der(d)
        except ExprDomainError as e:
            # vals holds one value per instruction before the failing one
            raise ExprDomainError(str(e), pos, self.tree_of(len(vals))) from None
        except (OverflowError, NonFiniteError):
            # OverflowError from math.exp and float powers; NonFiniteError
            # from the Jet constructor.  Operands are already built, so
            # this instruction's operation is the one at fault.
            raise ExprDomainError(f"result out of floating-point range at t = {t:.6g}",
                                  pos, self.tree_of(len(vals))) from None
        return [jets[i] for i in self.outputs]

    def tree_of(self, i: int) -> int:
        """The index of the first tree that holds instruction ``i``.

        ``compile_exprs`` appends each tree's new instructions after all
        earlier ones, so that is the first tree whose root, or an earlier
        tree's root, has index ``i`` or more: a subtree shared by several
        trees belongs to the first of them.
        """
        return next(k for k, top in enumerate(accumulate(self.outputs, max)) if top >= i)

    def run_points(self, ts) -> tuple[list, list]:
        """The trees at every sample value of ``ts``, as columns.

        Returns ``(values, derivatives)``, each a list with one entry per
        tree: its value, or its d/dt, at each sample value in order.
        Each instruction builds one jet per sample value, as ``run`` does
        at each of them.  When an instruction fails at some value, the
        program is run again through ``run`` at each value of ``ts`` in
        order, so the error raised is the one ``run`` meets first.
        """
        ts = [float(t) for t in ts]
        n = len(ts)
        vals, ders = [None] * len(self.code), [None] * len(self.code)
        last = _last_readers(self.code, self.outputs)
        for i, (op, fn, x, y, pos) in enumerate(self.code):
            if op == "call2":
                columns, operands = (vals[x], ders[x], vals[y], ders[y]), (x, y)
            elif op == "call1":
                columns, operands = (vals[x], ders[x]), (x,)
            elif op == "const":
                columns, operands = ([x] * n, [0.0] * n), ()
            else:
                columns, operands = (ts, [1.0] * n), ()
            try:
                v, d = columns if fn is None else _each(fn, columns)
                deque(map(Jet, v, zip(d)), 0)
            except (ExprDomainError, OverflowError, NonFiniteError):
                # the columns hold what run computes, so run fails too:
                # its error at the first failing value of ts is the one
                for t in ts:
                    self.run(t)
                raise
            vals[i], ders[i] = v, d
            for j in operands:
                if last[j] == i:
                    vals[j] = ders[j] = None
        return [vals[i] for i in self.outputs], [ders[i] for i in self.outputs]


def compile_exprs(trees) -> Program:
    """Compile expression trees into one program, each distinct subtree once.

    Two subtrees are the same when they have the same kind, operator or
    function, constant and children; offsets do not count, and a shared
    subtree keeps the offset of its first occurrence.  Constants are
    compared by their bits, so 0.0 and -0.0 stay apart.  Running the
    program builds the same jets, bit for bit, as evaluating each tree
    node by node, and its first failure is the one that evaluation
    meets first.  The trees are walked with an explicit stack, so a long
    sum, which parses into a deep left spine, needs no recursion.
    """
    code = []
    index = {}                   # structural key -> instruction index
    outputs = []
    for tree in trees:
        todo = [(tree, False)]   # (node, operands done)
        done = []                # instruction indices of finished operands
        while todo:
            e, ready = todo.pop()
            kind = type(e)
            if not ready:
                todo.append((e, True))
                if kind is BinOp:
                    todo += ((e.right, False), (e.left, False))
                    if e.op not in _BINARY:
                        raise TypeError(f"not an expression node: {e!r}")
                elif kind is Neg:
                    todo.append((e.operand, False))
                elif kind is Call and e.func in _UNARY:
                    todo.append((e.arg, False))
                elif kind not in (Num, Pi, Var):
                    raise TypeError(f"not an expression node: {e!r}")
                continue
            if kind is BinOp:
                y, x = done.pop(), done.pop()
                op, fn = "call2", _BINARY[e.op]
                key = ("bin", e.op, x, y)
            elif kind is Num:
                v = e.value
                op, fn, x, y = "const", None, float(v), None
                key = ("const", v.hex() if isinstance(v, float) else v)
            elif kind is Var:
                op, fn, x, y = "var", None, None, None
                key = ("var",)
            elif kind is Pi:
                op, fn, x, y = "const", None, math.pi, None
                key = ("pi",)
            else:
                x, y = done.pop(), None
                op = "call1"
                fn = _neg if kind is Neg else _UNARY[e.func]
                key = ("neg", x) if kind is Neg else ("call", e.func, x)
            i = index.get(key)
            if i is None:
                i = index[key] = len(code)
                code.append((op, fn, x, y, e.pos))
            done.append(i)
        outputs.append(done.pop())
    return Program(tuple(code), tuple(outputs))


def eval_expr(e, t: float) -> Jet:
    """Evaluate at the sample value t; the result carries d/dt exactly.

    The one-tree program of ``compile_exprs``: a value or derivative
    beyond the floating-point range raises ExprDomainError at the offset
    of the node whose operation left it.
    """
    return compile_exprs((e,)).run(t)[0]
