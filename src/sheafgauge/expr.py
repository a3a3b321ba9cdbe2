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
holds the value and the exact derivative of the expression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import ExprDomainError, ParseError
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


def eval_expr(e, t: float) -> Jet:
    """Evaluate at the sample value t; the result carries d/dt exactly.

    A value or derivative beyond the floating-point range raises
    ExprDomainError at the offset of the node whose operation left it.
    """
    try:
        if isinstance(e, Num):
            return Jet(e.value, [0.0])
        if isinstance(e, Pi):
            return Jet(math.pi, [0.0])
        if isinstance(e, Var):
            return Jet(float(t), [1.0])
        if isinstance(e, Neg):
            return -eval_expr(e.operand, t)
        if isinstance(e, Call):
            a = eval_expr(e.arg, t)
            return getattr(a, e.func)()
        if isinstance(e, BinOp):
            a = eval_expr(e.left, t)
            if e.op == "^":
                b = eval_expr(e.right, t)
                if _max_abs(b.gradient) != 0.0:
                    raise ExprDomainError("exponent depends on the variable", e.pos)
                if not float(b.value).is_integer():
                    raise ExprDomainError(f"exponent {b.value!r} is not an integer", e.pos)
                k = int(b.value)
                if a.value == 0.0 and k < 0:
                    raise ExprDomainError("zero base with negative exponent", e.pos)
                return a ** k
            b = eval_expr(e.right, t)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if b.value == 0.0:
                raise ExprDomainError("division by zero", e.pos)
            return a / b
    except (OverflowError, ValueError):
        # OverflowError from math.exp and float powers; ValueError from the
        # Jet constructor's finiteness check.  Children have already mapped
        # their own failures, so this node's operation is the one at fault.
        raise ExprDomainError(f"result out of floating-point range at t = {t:.6g}",
                              e.pos) from None
    raise TypeError(f"not an expression node: {e!r}")


def _max_abs(a) -> float:
    return max((abs(float(x)) for x in a), default=0.0)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(e) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def to_source(e) -> str:
    """Render a tree back to source; reparsing reproduces the tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Neg):
        inner = to_source(e.operand)
        if _prec(e.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.func}({to_source(e.arg)})"
    if isinstance(e, BinOp):
        lp, rp = _prec(e.left), _prec(e.right)
        me = _PREC[e.op]
        left = to_source(e.left)
        right = to_source(e.right)
        if e.op == "^":
            # base must be an atom; exponent may be a unary chain
            if lp < _PREC["atom"]:
                left = f"({left})"
            if isinstance(e.right, BinOp) and _PREC[e.right.op] < me:
                right = f"({right})"
        else:
            if lp < me:
                left = f"({left})"
            # left-associative: an equal-precedence right child regroups
            if rp <= me:
                right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")
