"""Named check batteries over a scenario.

``run_checks`` turns a parsed scenario into a :class:`~.report.Report`
whose entry names are stable, documented keys.  Suites select subsets:

    cocycle     cocycle.unit  cocycle.inverse  cocycle.triple
                push.unit     push.inverse     push.triple
    liehom      liehom.crossed  liehom.rep.hom
                liehom.def1.mc  liehom.def1.rho
    connection  connection.eq7  induced.eq10  koszul.eq8
    roundtrip   thm3.roundtrip  thm3.tensorial
                cor1.roundtrip  cor2.roundtrip
    all         everything above

Each key is one ``Law`` in ``LAWS``: its suite, the inputs it needs,
its default threshold and its kernel; a key is present only when the
scenario supplies what it needs (a representation, a seed connection).
A check that raises one of this package's errors is reported as an
``error`` entry rather than aborting the batch.  All randomness is
drawn from ``random.Random`` generators seeded by the scenario name and
the check key, so repeated runs, on any Python version, produce
byte-identical reports.

A key passes when its residual is at most ``TOLERANCES[key]``; for a
key a library check function computes, that is the module constant the
function itself reports (``principal.COCYCLE_TOL``, ``vconn.KOSZUL_TOL``
and so on; the push keys run ``check_cocycle`` on the pushed data under
``associated.PUSH_TOL``).  A scenario's ``[tolerances]`` section
overrides that threshold per report key and changes nothing else; any
other key there is a ScenarioError, raised before any check runs.  The
build steps the checks rest on (inversion, Lie-basis expansion,
connection completion and so on) read fixed module constants, listed in
the README; no function takes a threshold as an argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from .associated import (
    LIE_TYPE_TOL,
    PUSH_TOL,
    REP_TOL,
    TENSORIAL_TOL,
    check_lie_type,
    check_representation,
    evaluate_tensorial,
    push_cocycle,
    section_to_tensorial,
    tensorial_to_section,
)
from .catalog import (
    catalog_elements,
    random_element,
    random_principal_section,
    random_scalar_field,
    random_section,
    stable_seed,
)
from .cover import TAU_GLUE
from .errors import ScenarioError, SheafGaugeError
from .groups import LOG_RULE_TOL, check_logarithmic_rule, group_mul
from .jets import diff_rows, field_residual, mat_inv, mat_mul
from .principal import (
    COCYCLE_TOL,
    PrincipalSectionLocal,
    check_cocycle,
    check_connection,
    complete_connection,
)
from .report import CheckResult, Report, worst
from .scenario import (
    Scenario,
    build_cover,
    build_group,
    build_principal,
    build_representation,
    build_seed,
)
from .vconn import (
    KOSZUL_TOL,
    ROUNDTRIP_TOL,
    check_frame_roundtrip,
    induce_connection,
    check_leibniz_koszul,
    pull_back_connection,
)


@dataclass(frozen=True)
class Law:
    """One report key.  ``needs`` is a subset of {"representation", "seed"}.
    ``kernel(build, key)`` returns the unnamed result, drawing from
    ``build.rng(key)``; it looks library functions up by name when it
    runs, so a function rebound here (as by a tracer) is the one called."""

    key: str
    suite: str
    needs: frozenset
    tolerance: float
    kernel: Callable


class _Build:
    """What the kernels of one run share; each shared result is built once."""

    def __init__(self, scn: Scenario):
        self.scn = scn
        self.cover = build_cover(scn)
        self.group = build_group(scn)
        self.P = build_principal(scn, self.cover, self.group)
        self.R = build_representation(scn, self.group) if scn.representation is not None else None
        self.E = push_cocycle(self.P, self.R) if self.R is not None else None
        self.chart0 = self.cover.region_ids()[0]
        self.seed = None
        self.shared: dict[str, object] = {}

    def once(self, name: str, build):
        """An input several keys share, built on first use; a failed
        build re-raises its error for every key that needs it."""
        if name not in self.shared:
            try:
                self.shared[name] = build()
            except SheafGaugeError as exc:
                self.shared[name] = exc
        if isinstance(self.shared[name], SheafGaugeError):
            raise self.shared[name]
        return self.shared[name]

    def rng(self, key: str) -> random.Random:
        """The generator seeded by the scenario name and ``key``, made on first
        use and continued by later calls."""
        return self.once(key, lambda: random.Random(stable_seed(f"{self.scn.name}:{key}")))

    def element(self, key: str):
        return random_element(self.group, self.cover, self.chart0, self.rng(key))

    def cocycle(self) -> dict[str, CheckResult]:
        return self.once("cocycle", lambda: check_cocycle(self.P))

    def push(self) -> dict[str, CheckResult]:
        return self.once("push", lambda: check_cocycle(self.E))

    def lie_type(self) -> dict[str, CheckResult]:
        def build():
            elems = self.P.transitions()
            elems += catalog_elements(self.group, self.cover, self.chart0)
            return check_lie_type(self.R, elems + [self.element("liehom.def1")])
        return self.once("def1", build)

    def connection(self):
        return self.once("connection", lambda: complete_connection(self.P, self.seed))

    def induced(self):
        return self.once("induced", lambda: induce_connection(self.P, self.R, self.connection()))


def _rep_hom(b: _Build, key: str) -> CheckResult:
    elems = catalog_elements(b.group, b.cover, b.chart0) + [b.element(key)]
    return check_representation(b.R, list(zip(elems, elems[1:] + elems[:1])))


def _koszul(b: _Build, key: str) -> CheckResult:
    a = random_scalar_field("base", b.cover.points, b.cover.dim(b.chart0), b.rng(key))
    s = random_section(b.E, b.rng(key))
    return check_leibniz_koszul(b.E, b.induced(), a, s)


def _thm3_roundtrip(b: _Build, key: str) -> CheckResult:
    s = random_section(b.E, b.rng(key))
    back = tensorial_to_section(b.E, section_to_tensorial(b.E, s))
    return worst("", 0.0, [pair for c in sorted(s.components)
                           for pair in diff_rows(s.components[c], back.components[c])])


def _thm3_tensorial(b: _Build, key: str) -> CheckResult:
    s = random_section(b.E, b.rng(key))
    f = section_to_tensorial(b.E, s)
    sec = random_principal_section(b.P, b.chart0, b.rng(key))
    g = b.element(key)
    moved = PrincipalSectionLocal(b.chart0, group_mul(sec.factor, g))
    v_in = evaluate_tensorial(b.P, b.R, f, sec)
    v_out = evaluate_tensorial(b.P, b.R, f, moved)
    want = mat_mul(b.R.phi(mat_inv(g)), v_in)
    res, wp = field_residual(v_out, want)
    return CheckResult("", res, 0.0, wp)


def _cor1(b: _Build, key: str) -> CheckResult:
    D = b.connection()
    back = pull_back_connection(b.E, b.R, b.induced())
    return worst("", 0.0, [pair for c in sorted(D.forms)
                           for pair in diff_rows(D.forms[c], back.forms[c])])


_ANY, _REP, _SEED = frozenset(), frozenset({"representation"}), frozenset({"seed"})

# Every report key, in report order.
LAWS = (
    Law("cocycle.unit", "cocycle", _ANY, COCYCLE_TOL, lambda b, key: b.cocycle()["unit"]),
    Law("cocycle.inverse", "cocycle", _ANY, COCYCLE_TOL, lambda b, key: b.cocycle()["inverse"]),
    Law("cocycle.triple", "cocycle", _ANY, COCYCLE_TOL, lambda b, key: b.cocycle()["triple"]),
    Law("push.unit", "cocycle", _REP, PUSH_TOL, lambda b, key: b.push()["unit"]),
    Law("push.inverse", "cocycle", _REP, PUSH_TOL, lambda b, key: b.push()["inverse"]),
    Law("push.triple", "cocycle", _REP, PUSH_TOL, lambda b, key: b.push()["triple"]),
    Law("liehom.crossed", "liehom", _ANY, LOG_RULE_TOL,
        lambda b, key: check_logarithmic_rule(b.group, b.element(key), b.element(key))),
    Law("liehom.rep.hom", "liehom", _REP, REP_TOL, _rep_hom),
    Law("liehom.def1.mc", "liehom", _REP, LIE_TYPE_TOL, lambda b, key: b.lie_type()["mc"]),
    Law("liehom.def1.rho", "liehom", _REP, LIE_TYPE_TOL, lambda b, key: b.lie_type()["rho"]),
    Law("connection.eq7", "connection", _SEED, TAU_GLUE,
        lambda b, key: check_connection(b.P, b.connection())),
    Law("induced.eq10", "connection", _REP | _SEED, TAU_GLUE,
        lambda b, key: check_connection(b.E, b.induced())),
    Law("koszul.eq8", "connection", _REP | _SEED, KOSZUL_TOL, _koszul),
    Law("thm3.roundtrip", "roundtrip", _REP, ROUNDTRIP_TOL, _thm3_roundtrip),
    Law("thm3.tensorial", "roundtrip", _REP, TENSORIAL_TOL, _thm3_tensorial),
    Law("cor1.roundtrip", "roundtrip", _REP | _SEED, ROUNDTRIP_TOL, _cor1),
    Law("cor2.roundtrip", "roundtrip", _REP | _SEED, ROUNDTRIP_TOL,
        lambda b, key: check_frame_roundtrip(b.E, b.induced())),
)

TOLERANCES = {law.key: law.tolerance for law in LAWS}

SUITES = {suite: tuple(law.key for law in LAWS if law.suite == suite)
          for suite in dict.fromkeys(law.suite for law in LAWS)}
SUITES["all"] = tuple(TOLERANCES)


def run_checks(scn: Scenario, suite: str = "all") -> Report:
    """Run the named suite over a scenario and return its report.

    Construction of the cover, group, cocycle and representation is
    allowed to raise (a scenario that cannot even be built has no
    meaningful report), and so are unknown ``[tolerances]`` keys and
    the evaluation of the seed connection, made once when a key of the
    suite needs it; everything after that, connection completion
    included, lands in the report, including failures of the package's
    own error kinds.  The one exception is ``ScenarioError``: raised by
    a key (say, a representation whose powers overflow on a group
    element), it still means unusable input and propagates.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}")
    unknown = sorted(set(scn.tolerances) - set(TOLERANCES))
    if unknown:
        raise ScenarioError(
            f"[tolerances] takes report keys such as 'connection.eq7', "
            f"not {', '.join(map(repr, unknown))}")

    b = _Build(scn)
    given = {"representation": b.R is not None, "seed": scn.seed_chart is not None}
    laws = [law for law in LAWS
            if law.key in SUITES[suite] and all(given[need] for need in law.needs)]
    if any("seed" in law.needs for law in laws):
        b.seed = build_seed(scn, b.cover, b.group)

    report = Report()
    for law in laws:
        try:
            res = replace(law.kernel(b, law.key), name=law.key,
                          tolerance=scn.tolerance(law.key, law.tolerance))
        except ScenarioError:
            raise  # the input itself is unusable, not a failed check
        except SheafGaugeError as exc:
            res = CheckResult(law.key, float("inf"), 0.0,
                              error=f"{type(exc).__name__}: {exc}")
        report.add(res)
    return report
