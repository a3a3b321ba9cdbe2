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

Keys are present only when the scenario supplies their inputs: the
push, liehom.rep.hom, liehom.def1 and roundtrip families need a
representation, the connection family and the cor keys need a seed
connection.  A check that raises one of this package's errors is
reported as an ``error`` entry rather than aborting the batch.  All
randomness is drawn from generators seeded by the scenario name and the
check key, so repeated runs produce byte-identical reports.

Each key passes when its residual is at most ``TOLERANCES[key]``; for a
key a library check function computes, that is the module constant the
function itself reports (``principal.COCYCLE_TOL``, ``vconn.KOSZUL_TOL``
and so on).  The push keys run ``principal.check_cocycle`` on the pushed
data and default to ``associated.PUSH_TOL``; thm3.tensorial, computed
here, defaults to ``associated.TENSORIAL_TOL``.  A scenario's
``[tolerances]`` section overrides that threshold per report key and
changes nothing else; any other key there is a ScenarioError, raised
before any check runs.  The build steps the checks rest on
(cover Jacobians, inversion, Lie-basis expansion, connection completion
and induction, section compatibility, the pull-back image test) read
fixed module constants: ``cover.JACOBIAN_TOL``,
``cover.JACOBIAN_DET_FLOOR``, ``jets.DET_FLOOR``, ``groups.SPAN_TOL``,
``groups.BRACKET_TOL``, ``groups.RANK_TOL``, ``cover.TAU_GLUE``,
``associated.LIE_TYPE_TOL`` and ``vconn.IMAGE_TOL``.  No function takes
a threshold as an argument, so each one is decided in one place.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

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

# Default pass threshold of every report key, in report order.
TOLERANCES = {
    "cocycle.unit": COCYCLE_TOL,
    "cocycle.inverse": COCYCLE_TOL,
    "cocycle.triple": COCYCLE_TOL,
    "push.unit": PUSH_TOL,
    "push.inverse": PUSH_TOL,
    "push.triple": PUSH_TOL,
    "liehom.crossed": LOG_RULE_TOL,
    "liehom.rep.hom": REP_TOL,
    "liehom.def1.mc": LIE_TYPE_TOL,
    "liehom.def1.rho": LIE_TYPE_TOL,
    "connection.eq7": TAU_GLUE,
    "induced.eq10": TAU_GLUE,
    "koszul.eq8": KOSZUL_TOL,
    "thm3.roundtrip": ROUNDTRIP_TOL,
    "thm3.tensorial": TENSORIAL_TOL,
    "cor1.roundtrip": ROUNDTRIP_TOL,
    "cor2.roundtrip": ROUNDTRIP_TOL,
}


def _keys(*families: str) -> tuple[str, ...]:
    return tuple(k for k in TOLERANCES if k.split(".")[0] in families)


# Keys that need the seed connection: its evaluation is part of the build.
SEED_KEYS = _keys("connection", "induced", "koszul", "cor1", "cor2")

SUITES = {
    "cocycle": _keys("cocycle", "push"),
    "liehom": _keys("liehom"),
    "connection": _keys("connection", "induced", "koszul"),
    "roundtrip": _keys("thm3", "cor1", "cor2"),
    "all": tuple(TOLERANCES),
}


def _rng(scn: Scenario, key: str) -> np.random.Generator:
    return np.random.default_rng(stable_seed(f"{scn.name}:{key}"))


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

    cover = build_cover(scn)
    group = build_group(scn)
    P = build_principal(scn, cover, group)
    R = build_representation(scn, group) if scn.representation else None
    E = push_cocycle(P, R) if R is not None else None
    chart0 = cover.region_ids()[0]
    shared: dict[str, object] = {}

    def once(name: str, build):
        """An input several keys share, built on first use; a failed
        build re-raises its error for every key that needs it."""
        if name not in shared:
            try:
                shared[name] = build()
            except SheafGaugeError as exc:
                shared[name] = exc
        if isinstance(shared[name], SheafGaugeError):
            raise shared[name]
        return shared[name]

    def cocycle(part: str) -> CheckResult:
        return once("cocycle", lambda: check_cocycle(P))[part]

    def push(part: str) -> CheckResult:
        return once("push", lambda: check_cocycle(E))[part]

    def def1(part: str) -> CheckResult:
        def build():
            rng = _rng(scn, "liehom.def1")
            elems = [f for (a, b), f in sorted(P.cocycle.items())
                     if a != b and len(f)]
            elems += catalog_elements(group, cover, chart0)
            elems.append(random_element(group, cover, chart0, rng))
            return check_lie_type(R, elems)
        return once("def1", build)[part]

    def connection():
        return once("connection", lambda: complete_connection(P, seed))

    def induced():
        return once("induced", lambda: induce_connection(P, R, connection()))

    def crossed():
        rng = _rng(scn, "liehom.crossed")
        s = random_element(group, cover, chart0, rng)
        t = random_element(group, cover, chart0, rng)
        return check_logarithmic_rule(group, s, t)

    def rep_hom():
        rng = _rng(scn, "liehom.rep.hom")
        elems = catalog_elements(group, cover, chart0)
        elems.append(random_element(group, cover, chart0, rng))
        pairs = list(zip(elems, elems[1:] + elems[:1]))
        return check_representation(R, pairs)

    def koszul():
        rng = _rng(scn, "koszul.eq8")
        a = random_scalar_field("base", cover.points, cover.dim(chart0), rng)
        s = random_section(E, rng)
        return check_leibniz_koszul(E, induced(), a, s)

    def thm3_roundtrip():
        rng = _rng(scn, "thm3.roundtrip")
        s = random_section(E, rng)
        f = section_to_tensorial(E, s)
        back = tensorial_to_section(E, f)
        residuals = [field_residual(s.components[c], back.components[c])
                     for c in sorted(s.components)]
        return worst("thm3.roundtrip", ROUNDTRIP_TOL,
                     ((p, res) for res, p in residuals))

    def thm3_tensorial():
        rng = _rng(scn, "thm3.tensorial")
        s = random_section(E, rng)
        f = section_to_tensorial(E, s)
        sec = random_principal_section(P, chart0, rng)
        g = random_element(group, cover, chart0, rng)
        moved = PrincipalSectionLocal(chart0, group_mul(sec.factor, g))
        v_in = evaluate_tensorial(P, R, f, sec)
        v_out = evaluate_tensorial(P, R, f, moved)
        want = mat_mul(R.phi(mat_inv(g)), v_in)
        res, wp = field_residual(v_out, want)
        return CheckResult("thm3.tensorial", res, TENSORIAL_TOL, wp)

    def cor1():
        D = connection()
        back = pull_back_connection(E, R, induced())
        pairs = []
        for c in sorted(D.forms):
            order = D.forms[c].ordered_points()
            pairs += zip(order, diff_rows(D.forms[c], back.forms[c], order))
        return worst("cor1.roundtrip", ROUNDTRIP_TOL, pairs)

    checks = {
        "cocycle.unit": lambda: cocycle("unit"),
        "cocycle.inverse": lambda: cocycle("inverse"),
        "cocycle.triple": lambda: cocycle("triple"),
        "liehom.crossed": crossed,
    }
    if R is not None:
        checks.update({
            "push.unit": lambda: push("unit"),
            "push.inverse": lambda: push("inverse"),
            "push.triple": lambda: push("triple"),
            "liehom.rep.hom": rep_hom,
            "liehom.def1.mc": lambda: def1("mc"),
            "liehom.def1.rho": lambda: def1("rho"),
            "thm3.roundtrip": thm3_roundtrip,
            "thm3.tensorial": thm3_tensorial,
        })
    if scn.seed_chart is not None:
        checks["connection.eq7"] = lambda: check_connection(P, connection())
        if R is not None:
            checks.update({
                "induced.eq10": lambda: check_connection(E, induced()),
                "koszul.eq8": koszul,
                "cor1.roundtrip": cor1,
                "cor2.roundtrip": lambda: check_frame_roundtrip(E, induced()),
            })

    keys = [k for k in SUITES[suite] if k in checks]
    if any(k in SEED_KEYS for k in keys):
        seed = build_seed(scn, cover, group)

    report = Report()
    for key in keys:
        try:
            res = replace(checks[key](), name=key,
                          tolerance=scn.tolerance(key, TOLERANCES[key]))
        except ScenarioError:
            raise  # the input itself is unusable, not a failed check
        except SheafGaugeError as exc:
            res = CheckResult(key, float("inf"), 0.0,
                              error=f"{type(exc).__name__}: {exc}")
        report.add(res)
    return report
