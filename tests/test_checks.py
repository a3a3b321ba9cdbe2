"""The report-keyed tolerance table and the worst-point reducer."""

import pytest
from click.testing import CliRunner

from sheafgauge import SUITES, TOLERANCES, ScenarioError, parse_scenario, run_checks
from sheafgauge.cli import main
from sheafgauge.report import worst
from sheafgauge.scenario import DEMOS


def with_tolerances(demo: str, *lines: str) -> str:
    return DEMOS[demo] + "\n[tolerances]\n" + "\n".join(lines) + "\n"


class TestToleranceTable:
    def test_keys_are_the_report_keys_in_report_order(self):
        assert tuple(TOLERANCES) == SUITES["all"]
        assert len(TOLERANCES) == 17
        for suite, keys in SUITES.items():
            assert keys and set(keys) <= set(TOLERANCES), suite

    def test_report_key_override_sets_only_that_threshold(self):
        default = run_checks(parse_scenario(DEMOS["shear-frame"]))
        tight = run_checks(parse_scenario(
            with_tolerances("shear-frame", "connection.eq7 = 1e-20")))
        eq7 = tight["connection.eq7"]
        assert eq7.tolerance == 1e-20
        assert eq7.residual == default["connection.eq7"].residual > 1e-20
        assert eq7.status == "fail"
        for r in tight.results():
            if r.name != "connection.eq7":
                assert r == default[r.name]

    def test_override_of_a_shared_input_key_leaves_its_siblings(self):
        report = run_checks(parse_scenario(
            with_tolerances("so2", "cocycle.inverse = 0")))
        assert report["cocycle.inverse"].status == "fail"
        assert report["cocycle.unit"].tolerance == TOLERANCES["cocycle.unit"]
        assert report["cocycle.triple"].tolerance == TOLERANCES["cocycle.triple"]

    @pytest.mark.parametrize("key", ["glue", "cocycle", "lie_type", "roundtrip",
                                     "connection"])
    def test_non_report_key_is_rejected_before_any_check(self, key):
        scn = parse_scenario(with_tolerances("so2", f"{key} = 1e-6"))
        with pytest.raises(ScenarioError, match=repr(key)):
            run_checks(scn, "cocycle")

    def test_cli_rejects_short_key_with_exit_2(self, tmp_path):
        f = tmp_path / "so2.scn"
        f.write_text(with_tolerances("so2", "glue = 1e-6"))
        r = CliRunner().invoke(main, ["check", str(f)])
        assert r.exit_code == 2
        assert "'glue'" in r.stderr
        assert "Traceback" not in r.output
        assert r.stdout == ""


class TestWorst:
    def test_first_of_tied_points_wins(self):
        r = worst("k", 1.0, [(0, 0.5), (1, 2.0), (2, 2.0), (3, 1.0)])
        assert (r.name, r.residual, r.tolerance, r.worst_point) == ("k", 2.0, 1.0, 1)
        assert r.status == "fail"

    def test_all_zero_has_no_worst_point(self):
        r = worst("k", 1e-9, [(0, 0.0), (1, 0.0)])
        assert r.residual == 0.0 and r.worst_point is None and r.passed

    def test_empty_input_has_no_worst_point(self):
        r = worst("k", 1e-9, iter(()))
        assert r.residual == 0.0 and r.worst_point is None and r.passed
