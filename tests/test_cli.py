"""Command line behavior: output, exit codes, determinism."""

import pytest
from click.testing import CliRunner

from sheafgauge.cli import main
from sheafgauge.scenario import DEMO_SO2, DEMOS

TRIPLE_CLASH = """\
name = clash
[space]
points = 12
region alpha = 0 .. 8
region beta  = 4 .. 11
region gamma = 8 .. 3
[group]
kind = gl1+
[cocycle alpha beta]
row = 1
[cocycle beta gamma]
row = 1
[cocycle gamma alpha]
row = 2
"""

NO_CONNECTION = """\
name = bare
[space]
points = 12
region alpha = 0 .. 7
region beta  = 6 .. 1
[group]
kind = so(2)
[cocycle alpha beta]
row = cos(t); -sin(t)
row = sin(t); cos(t)
"""


@pytest.fixture
def runner():
    return CliRunner()


class TestListDemos:
    def test_lists_names(self, runner):
        r = runner.invoke(main, ["list-demos"])
        assert r.exit_code == 0
        assert r.output.splitlines() == ["mobius", "shear-frame", "so2"]


class TestDemo:
    def test_full_run_passes(self, runner):
        r = runner.invoke(main, ["demo", "so2"])
        assert r.exit_code == 0
        assert r.output.startswith("scenario: so2\n")
        assert "connection.eq7" in r.output
        assert "17 checks, 17 passed, 0 failed" in r.output

    def test_unknown_demo_is_input_error(self, runner):
        r = runner.invoke(main, ["demo", "torus"])
        assert r.exit_code == 2
        assert "error:" in r.stderr
        assert "unknown demo" in r.stderr

    def test_suite_selection(self, runner):
        r = runner.invoke(main, ["demo", "mobius", "--suite", "cocycle"])
        assert r.exit_code == 0
        assert "cocycle.triple" in r.output
        assert "connection.eq7" not in r.output

    def test_unknown_suite_is_usage_error(self, runner):
        r = runner.invoke(main, ["demo", "mobius", "--suite", "fancy"])
        assert r.exit_code == 2
        assert "Invalid value" in r.stderr


class TestCheck:
    def test_scenario_file(self, runner, tmp_path):
        f = tmp_path / "bare.scn"
        f.write_text(NO_CONNECTION)
        r = runner.invoke(main, ["check", str(f)])
        assert r.exit_code == 0
        assert "scenario: bare" in r.output

    def test_missing_file_is_input_error(self, runner, tmp_path):
        r = runner.invoke(main, ["check", str(tmp_path / "none.scn")])
        assert r.exit_code == 2
        assert "cannot read" in r.stderr

    def test_malformed_file_is_input_error(self, runner, tmp_path):
        f = tmp_path / "bad.scn"
        f.write_text("[space\n")
        r = runner.invoke(main, ["check", str(f)])
        assert r.exit_code == 2
        assert "unterminated" in r.stderr

    @pytest.mark.parametrize("old,new,message", [
        ("row = cos(t); -sin(t)", "row = 1 / sin(t); -sin(t)",
         "error: cocycle (alpha, beta): row 1, entry 1: division by zero\n"),
        ("coeffs = (2 + sin(t)) / 4", "coeffs = 1 / (t - t)",
         "error: connection alpha: entry 1: division by zero\n"),
    ])
    def test_failing_expression_names_its_section(self, runner, tmp_path, old, new, message):
        f = tmp_path / "bad.scn"
        f.write_text(DEMO_SO2.replace(old, new))
        r = runner.invoke(main, ["check", str(f)])
        assert r.exit_code == 2
        assert r.stderr == message

    def test_singular_cocycle_entry_names_its_section(self, runner, tmp_path):
        f = tmp_path / "singular.scn"
        f.write_text(DEMOS["mobius"].replace("[cocycle gamma alpha]\nrow = -1",
                                             "[cocycle gamma alpha]\nrow = 0"))
        r = runner.invoke(main, ["check", str(f)])
        assert r.exit_code == 2
        assert r.stderr == ("error: cocycle (gamma, alpha): determinant 0.000e+00 "
                            "below floor 1.0e-09 at point 0\n")

    def test_failures_reported_without_strict(self, runner, tmp_path):
        f = tmp_path / "clash.scn"
        f.write_text(TRIPLE_CLASH)
        r = runner.invoke(main, ["check", str(f)])
        assert r.exit_code == 0
        assert "3 passed, 1 failed" in r.output
        triple = [ln for ln in r.output.splitlines()
                  if ln.startswith("cocycle.triple")]
        assert triple and triple[0].rstrip().endswith("fail")
        assert " 8 " in triple[0]

    def test_strict_turns_failures_into_exit_1(self, runner, tmp_path):
        f = tmp_path / "clash.scn"
        f.write_text(TRIPLE_CLASH)
        r = runner.invoke(main, ["check", str(f), "--strict"])
        assert r.exit_code == 1
        assert "cocycle.triple" in r.output

    def test_strict_passes_clean_run(self, runner, tmp_path):
        f = tmp_path / "bare.scn"
        f.write_text(NO_CONNECTION)
        r = runner.invoke(main, ["check", str(f), "--strict"])
        assert r.exit_code == 0

    def test_empty_suite_is_fine(self, runner, tmp_path):
        f = tmp_path / "bare.scn"
        f.write_text(NO_CONNECTION)
        r = runner.invoke(main, ["check", str(f), "--suite", "connection"])
        assert r.exit_code == 0
        assert "0 checks, 0 passed, 0 failed" in r.output


class TestOut:
    def test_writes_kv_lines(self, runner, tmp_path):
        out = tmp_path / "report.txt"
        r = runner.invoke(main, ["demo", "so2", "--out", str(out)])
        assert r.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines
        assert all("=" in ln for ln in lines)
        keys = {ln.split("=")[0].strip().rsplit(".", 1)[0] for ln in lines}
        assert any(k.startswith("connection.eq7") for k in keys)

    def test_runs_are_byte_identical(self, runner, tmp_path):
        outs = []
        stdouts = []
        for i in range(2):
            out = tmp_path / f"r{i}.txt"
            r = runner.invoke(main, ["demo", "shear-frame", "--out", str(out)])
            assert r.exit_code == 0
            outs.append(out.read_bytes())
            stdouts.append(r.output)
        assert outs[0] == outs[1]
        assert stdouts[0] == stdouts[1]
