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
that holds each distinct subtree once, in left-to-right post-order, and
running it at each sample value; ``eval_expr`` is the program of a
single tree.  A matrix compiled as one program evaluates a subexpression
shared by several of its entries once per point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import ExprDomainError, NonFiniteError, ParseError
from .jets import Jet, jet_mul

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


# Gradients of constants and of the variable, shared by every evaluation.
_ZERO = (0.0,)
_ONE = (1.0,)

# Jet operations of the nodes that need no check of their own; ``-`` is
# Jet.__neg__ as an unary node and Jet.__sub__ as a binary one.
_UNARY = {"sin": Jet.sin, "cos": Jet.cos, "exp": Jet.exp}
_BINARY = {"*": jet_mul, "+": Jet.__add__, "-": Jet.__sub__}


@dataclass(frozen=True)
class Program:
    """A list of expression trees compiled into one flat instruction list.

    ``code`` holds one ``(op, fn, x, y, pos)`` instruction per distinct
    subtree, in the left-to-right post-order of the trees, so operands
    come before the instructions that read them: ``x`` and ``y`` index
    earlier instructions (``x`` is the value of a ``const``), ``fn`` is
    the jet operation of a ``call1`` or ``call2`` and ``pos`` is the
    source offset where the subtree first occurs.  ``outputs`` indexes
    the instruction of each tree's root.
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
        vals = []
        push = vals.append
        try:
            for op, fn, x, y, pos in self.code:
                if op == "call2":
                    push(fn(vals[x], vals[y]))
                elif op == "call1":
                    push(fn(vals[x]))
                elif op == "const":
                    push(Jet(x, _ZERO))
                elif op == "var":
                    push(Jet(t, _ONE))
                elif op == "/":
                    a, b = vals[x], vals[y]
                    if b.value == 0.0:
                        raise ExprDomainError("division by zero", pos)
                    push(a / b)
                else:
                    a, b = vals[x], vals[y]
                    if any(b.grad_tuple):
                        raise ExprDomainError("exponent depends on the variable", pos)
                    if not b.value.is_integer():
                        raise ExprDomainError(f"exponent {b.value!r} is not an integer", pos)
                    k = int(b.value)
                    if a.value == 0.0 and k < 0:
                        raise ExprDomainError("zero base with negative exponent", pos)
                    push(a ** k)
        except (OverflowError, NonFiniteError):
            # OverflowError from math.exp and float powers; NonFiniteError
            # from the Jet constructor.  Operands are already built, so
            # this instruction's operation is the one at fault.
            raise ExprDomainError(f"result out of floating-point range at t = {t:.6g}",
                                  pos) from None
        return [vals[i] for i in self.outputs]


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
                    if e.op not in _BINARY and e.op not in ("/", "^"):
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
                fn = _BINARY.get(e.op)
                op = e.op if fn is None else "call2"
                key = ("bin", e.op, x, y)
            elif kind is Num:
                v = e.value
                op, fn, x, y = "const", None, v, None
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
                fn = Jet.__neg__ if kind is Neg else _UNARY[e.func]
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
