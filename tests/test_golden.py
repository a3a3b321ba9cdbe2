"""Golden reports: the rendered output of every demo under every suite.

Each file in ``tests/golden`` holds ``Report.table()`` followed by
``Report.kv_lines()`` for one scenario and suite.  A change that alters
any residual, worst point, tolerance, status or error text shows up as a
byte difference here.  After an intended output change, rewrite the
affected files from ``render``.
"""

from pathlib import Path

import pytest

from helpers import by_key
from sheafgauge import SUITES, load_demo, parse_scenario, run_checks
from sheafgauge.scenario import DEMOS

GOLDEN = Path(__file__).parent / "golden"

# The mobius demo with a non-constant transition: no connection extends
# the seed around the cycle, so completion fails and every key that needs
# the connection must land as an error row.
BROKEN_MOBIUS = DEMOS["mobius"].replace(
    "name = mobius", "name = mobius-no-completion").replace(
    "[cocycle beta gamma]\nrow = 1", "[cocycle beta gamma]\nrow = 2 + sin(t)")

CONNECTION_DEPENDENT = ("connection.eq7", "induced.eq10", "koszul.eq8",
                        "cor1.roundtrip", "cor2.roundtrip")

CASES = [(demo, suite) for demo in ("mobius", "so2", "shear-frame")
         for suite in ("all", "cocycle", "liehom", "connection", "roundtrip")]


def render(scn, suite: str) -> str:
    report = run_checks(scn, suite)
    return report.table() + "\n" + "\n".join(report.kv_lines()) + "\n"


def golden_path(name: str, suite: str) -> Path:
    return GOLDEN / f"{name}.{suite}.txt"


@pytest.mark.parametrize("demo,suite", CASES)
def test_demo_report_is_unchanged(demo, suite):
    assert render(load_demo(demo), suite) == golden_path(demo, suite).read_text()


def test_completion_failure_report_is_unchanged():
    scn = parse_scenario(BROKEN_MOBIUS)
    assert render(scn, "all") == golden_path(scn.name, "all").read_text()


def test_completion_failure_lands_as_error_rows():
    report = run_checks(parse_scenario(BROKEN_MOBIUS), "all")
    assert len(report) == len(SUITES["all"])
    for key in CONNECTION_DEPENDENT:
        r = by_key(report)[key]
        assert r.status == "error"
        assert r.error.startswith("CycleInconsistencyError: ")
        assert r.tolerance == 0.0
    others = [r for r in report.results() if r.name not in CONNECTION_DEPENDENT]
    assert all(r.status == "pass" for r in others)
