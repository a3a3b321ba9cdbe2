"""Test helpers that the library itself never calls.

``to_source`` is the parser's round-trip oracle: it renders an
expression tree back to text that ``parse_expr`` turns into the same
tree.  The others read or rebuild library objects the way the tests
need: a cover's chart coordinate at a point, a matrix field with every
entry mapped, the Lie rank of a one-form and a report's results by key.
"""

from __future__ import annotations

from typing import Callable

from sheafgauge import (
    JetMatrix,
    LieValuedOneForm,
    MatrixField,
    Report,
    SampledCover,
    UnknownRegionError,
)
from sheafgauge.expr import BinOp, Call, Neg, Num, Pi, Var

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


def coord(cover: SampledCover, rid: str, p):
    """The chart coordinates of point ``p`` in region ``rid``."""
    try:
        return cover.coords[(rid, p)]
    except KeyError:
        raise UnknownRegionError(f"no coordinates for ({rid!r}, {p!r})") from None


def map_entries(field: MatrixField, fn: Callable[[object, JetMatrix], JetMatrix],
                rows=None, cols=None) -> MatrixField:
    """The field holding ``fn(p, entry)`` at each point ``p``; ``rows`` and
    ``cols`` default to ``field``'s."""
    out = {p: fn(p, m) for p, m in field.data.items()}
    r = field.rows if rows is None else rows
    c = field.cols if cols is None else cols
    return MatrixField(field.region, r, c, out)


def rank(form: LieValuedOneForm):
    """The number of Lie coefficients per chart direction; None for an
    empty form, which may not know it."""
    return form.coeffs.shape[2] if form.data else None


def by_key(report: Report) -> dict:
    """The report's results by report key."""
    return {r.name: r for r in report.results()}
