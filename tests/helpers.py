"""Test helpers that the library itself never calls.

``to_source`` is the parser's round-trip oracle: it renders an
expression tree back to text that ``parse_expr`` turns into the same
tree.  The others read or rebuild library objects the way the tests
need: a field of any kind from its entries at each point, a cover's
chart coordinate at a point, a matrix field with every entry mapped, the
Lie rank of a one-form and a report's results by key.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from sheafgauge import (
    Jet,
    JetMatrix,
    LieValuedOneForm,
    MatrixField,
    Report,
    SampledCover,
    UnknownRegionError,
    point_order,
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


def _row(entry):
    if isinstance(entry, Jet):
        return (entry.value,) + entry.grad_tuple
    if isinstance(entry, JetMatrix):
        return np.concatenate((entry.value[None], entry.grad))
    return entry


def stacked(kind, region: str, data: Mapping):
    """The ``kind`` field on ``region`` built by ``kind.from_stack`` from
    ``data``: the row of each point's ``Jet``, ``JetMatrix`` or array of
    coefficients, stacked in ``point_order``.  It checks nothing itself."""
    points = point_order(data)
    return kind.from_stack(region, points, [_row(data[p]) for p in points])


def coord(cover: SampledCover, rid: str, p):
    """The chart coordinates of point ``p`` in region ``rid``."""
    try:
        return cover.coords[(rid, p)]
    except KeyError:
        raise UnknownRegionError(f"no coordinates for ({rid!r}, {p!r})") from None


def map_entries(field: MatrixField,
                fn: Callable[[object, JetMatrix], JetMatrix]) -> MatrixField:
    """The field holding ``fn(p, entry)`` at each point ``p``."""
    return stacked(MatrixField, field.region, {p: fn(p, m) for p, m in field.data.items()})


def rank(form: LieValuedOneForm) -> int:
    """The number of Lie coefficients per chart direction."""
    return form.coeffs.shape[2]


def by_key(report: Report) -> dict:
    """The report's results by report key."""
    return {r.name: r for r in report.results()}
