"""Inputs of the sheafgauge benchmark, made from a workload name and a seed.

Each input is one scenario text, the suite to run over it and the status
table its report must show.  The library only ever sees the scenario
text; everything else stays on the benchmark side.

Workloads (why each exists):

``demos-n24``
    The three built-in demos exactly as shipped, 24 sample points, suite
    ``all``.  The everyday traffic of ``sheafgauge demo``; every array is
    tiny, so per-call fixed cost dominates.
``dense-n480``
    The same demos with their region bounds rescaled to 480 points.
    Per-point work in jets, groups, associated, principal and vconn is
    nearly all of each report.
``long-exprs``
    Generated ``gl(2)`` scenarios with long bounded trigonometric
    entries over three arcs with a common overlap, suite ``cocycle``.
    Front-end (``expr``, ``scenario.build_principal``) work dominates
    and one scenario in four carries a planted cocycle fault.
"""

from __future__ import annotations

import math
import random
import re

from sheafgauge.scenario import DEMOS

DEMO_ORDER = ("mobius", "so2", "shear-frame")

# The published report keys of each suite, kept here rather than read
# from the library so that a key the library drops or renames shows up
# as a failed report.
COCYCLE_KEYS = ("cocycle.unit", "cocycle.inverse", "cocycle.triple",
                "push.unit", "push.inverse", "push.triple")
SUITE_KEYS = {
    "cocycle": COCYCLE_KEYS,
    "all": COCYCLE_KEYS + (
        "liehom.crossed", "liehom.rep.hom", "liehom.def1.mc", "liehom.def1.rho",
        "connection.eq7", "induced.eq10", "koszul.eq8",
        "thm3.roundtrip", "thm3.tensorial", "cor1.roundtrip", "cor2.roundtrip"),
}

WORKLOADS = {
    "demos-n24": {"n_points": 24, "suite": "all"},
    "dense-n480": {"n_points": 480, "suite": "all"},
    "long-exprs": {"n_points": 96, "suite": "cocycle"},
}

# long-exprs layout at 96 points: every pair of arcs overlaps and all
# three share the points 32 .. 47.
LONG_ARCS = {"alpha": (0, 63), "beta": (32, 95), "gamma": (64, 47)}
LONG_SCENARIOS = 4          # one of them carries the planted fault
LONG_TERMS = 8              # terms per trigonometric polynomial
PLANTED_FAULT = 1e-3        # added to one entry of the third transition

_POINTS_RE = re.compile(r"^(\s*points\s*=\s*)(\d+)", re.MULTILINE)
_REGION_RE = re.compile(r"^(\s*region\s+\S+\s*=\s*)(\d+)\s*\.\.\s*(\d+)",
                        re.MULTILINE)
_NAME_RE = re.compile(r"^name\s*=\s*(\S+)", re.MULTILINE)


def rescale(text: str, n_points: int) -> str:
    """Rewrite a scenario's sample count to ``n_points``.

    Old point i becomes the block of new points i*k .. i*k + k - 1, with
    k = n_points / old count, so a range a .. b becomes
    a*k .. b*k + k - 1.  Intersections of blocks are the blocks of the
    intersections: overlaps and triple overlaps keep their pattern and
    each grows by the factor k.
    """
    m = _POINTS_RE.search(text)
    if m is None:
        raise ValueError("scenario text has no points line")
    old = int(m.group(2))
    if n_points % old:
        raise ValueError(f"{n_points} points is not a multiple of {old}")
    k = n_points // old
    text = _POINTS_RE.sub(lambda m: f"{m.group(1)}{n_points}", text, count=1)
    return _REGION_RE.sub(
        lambda m: f"{m.group(1)}{int(m.group(2)) * k} .. "
                  f"{int(m.group(3)) * k + k - 1}", text)


def rename(text: str, suffix: str) -> str:
    """Append ``suffix`` to the scenario name.

    The library seeds its random probes from the name, so a new suffix
    gives new probe data over the same bundle data.
    """
    return _NAME_RE.sub(lambda m: f"name = {m.group(1)}{suffix}", text, count=1)


def demo_inputs(n_points: int, suite: str, seed: int) -> list[dict]:
    expected = {key: "pass" for key in SUITE_KEYS[suite]}
    out = []
    for demo in DEMO_ORDER:
        text = rename(DEMOS[demo], f"-s{seed}")
        if n_points != 24:
            text = rescale(text, n_points)
        out.append({"name": f"{demo}-s{seed}", "text": text,
                    "suite": suite, "expected": expected})
    return out


def _signed_join(terms: list[tuple[float, str]]) -> str:
    text = ""
    for coeff, body in terms:
        piece = f"{abs(coeff):.4f} * {body}"
        if not text:
            text = piece if coeff >= 0 else f"-{piece}"
        else:
            text += f" {'-' if coeff < 0 else '+'} {piece}"
    return text


def trig_poly(rng: random.Random, terms: int, bound: float) -> str:
    """A trigonometric polynomial in t whose absolute value stays below ``bound``.

    The coefficients' absolute values sum to at most ``bound``, so
    ``exp`` of the result is bounded and no evaluation can overflow.
    """
    raw = [rng.uniform(-1.0, 1.0) for _ in range(terms)]
    scale = 0.999 * bound / sum(abs(c) for c in raw)
    parts = []
    for c in raw:
        func = rng.choice(("sin", "cos"))
        freq = rng.randint(1, 4)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        parts.append((c * scale, f"{func}({freq} * t + {phase:.4f})"))
    return _signed_join(parts)


def _cocycle_section(a: str, b: str, rows: list[list[str]]) -> str:
    lines = [f"[cocycle {a} {b}]"]
    lines += ["row = " + "; ".join(row) for row in rows]
    return "\n".join(lines)


def long_expr_scenario(rng: random.Random, name: str, planted: bool) -> str:
    """One generated gl(2) scenario over the three ``LONG_ARCS``.

    g(alpha, beta) and g(beta, gamma) are upper triangular with entries
    exp(u), f, exp(v); g(alpha, gamma) is written out as their product,
    so the cocycle holds up to rounding.  A planted fault adds
    ``PLANTED_FAULT`` to the top-left entry of g(alpha, gamma), which only
    the triple-overlap identities can see.
    """
    u1, f1, v1, u2, f2, v2 = (trig_poly(rng, LONG_TERMS, b)
                              for b in (0.8, 1.0, 0.8, 0.8, 1.0, 0.8))
    ab = [[f"exp({u1})", f1], ["0", f"exp({v1})"]]
    bg = [[f"exp({u2})", f2], ["0", f"exp({v2})"]]
    top_left = f"exp({u1}) * exp({u2})"
    if planted:
        top_left += f" + {PLANTED_FAULT!r}"
    ag = [[top_left, f"exp({u1}) * ({f2}) + ({f1}) * exp({v2})"],
          ["0", f"exp({v1}) * exp({v2})"]]
    n = WORKLOADS["long-exprs"]["n_points"]
    regions = "\n".join(f"region {rid} = {a} .. {b}"
                        for rid, (a, b) in LONG_ARCS.items())
    return "\n\n".join([
        f"name = {name}",
        f"[space]\npoints = {n}\n{regions}",
        "[group]\nkind = gl(2)",
        _cocycle_section("alpha", "beta", ab),
        _cocycle_section("beta", "gamma", bg),
        _cocycle_section("alpha", "gamma", ag),
        "[representation]\nname = trivial(2)",
    ]) + "\n"


def long_expr_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    suite = WORKLOADS["long-exprs"]["suite"]
    planted_at = rng.randrange(LONG_SCENARIOS)
    out = []
    for i in range(LONG_SCENARIOS):
        planted = i == planted_at
        name = f"long-s{seed}-{i}"
        expected = {key: "pass" for key in SUITE_KEYS[suite]}
        if planted:
            expected["cocycle.triple"] = expected["push.triple"] = "fail"
        out.append({"name": name, "text": long_expr_scenario(rng, name, planted),
                    "suite": suite, "expected": expected})
    return out


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The scenarios of one workload, in the order the client rotates through them."""
    spec = WORKLOADS[workload]
    if workload == "long-exprs":
        return long_expr_inputs(seed)
    return demo_inputs(spec["n_points"], spec["suite"], seed)
