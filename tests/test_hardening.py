"""Front-end inputs that used to escape as tracebacks or be reinterpreted."""

import warnings

import pytest
from click.testing import CliRunner

from sheafgauge import (
    ExprDomainError,
    ParseError,
    ScenarioError,
    eval_expr,
    parse_expr,
    parse_scenario,
)
from sheafgauge import checks as checks_module
from sheafgauge import expr as expr_module
from sheafgauge import groups as groups_module
from sheafgauge import scenario as scenario_module
from sheafgauge.associated import rep_by_name
from sheafgauge.checks import run_checks
from sheafgauge.expr import Neg, Var
from sheafgauge.cli import main
from sheafgauge.groups import MAX_AMBIENT, model_by_name
from sheafgauge.scenario import DEMOS, DEMO_SO2, MAX_POINTS


OVERFLOWS = [
    ("exp(exp(exp(t)))", 6.0, 0),        # the outer exp overflows
    ("1 + exp(exp(t))", 7.0, 4),
    ("t^100000", 2.0, 1),
    ("2 * t^400", 10.0, 5),
    ("(t * 1e200) * 1e200", 1.0, 12),     # product value leaves the range
    ("1e400 + t", 0.0, 0),                # literal that is already infinite
]


class TestOverflow:
    @pytest.mark.parametrize("src,t,offset", OVERFLOWS)
    def test_overflow_is_a_domain_error_at_the_node(self, src, t, offset):
        with pytest.raises(ExprDomainError) as exc:
            eval_expr(parse_expr(src), t)
        assert exc.value.offset == offset
        assert "floating-point range" in str(exc.value)

    @pytest.mark.parametrize("src,t,offset", OVERFLOWS)
    def test_overflow_prints_no_warning(self, src, t, offset):
        tree = parse_expr(src)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExprDomainError):
                eval_expr(tree, t)

    def test_in_range_values_still_evaluate(self):
        assert eval_expr(parse_expr("t^100000"), 1.0).value == 1.0
        assert eval_expr(parse_expr("exp(exp(t))"), 1.0).value > 15.0


@pytest.fixture
def runner():
    return CliRunner()


class TestOverflowThroughTheCli:
    @pytest.mark.parametrize("entry", ["exp(exp(exp(t)))", "t^100000"])
    def test_overflowing_cocycle_entry_is_unusable_input(self, runner, tmp_path, entry):
        f = tmp_path / "over.scn"
        f.write_text(DEMO_SO2.replace("row = cos(t); -sin(t)", f"row = {entry}; -sin(t)"))
        r = runner.invoke(main, ["check", str(f)])
        assert r.exit_code == 2
        assert "floating-point range" in r.stderr
        assert "Traceback" not in r.output + r.stderr

    @pytest.mark.parametrize("coeff", ["exp(exp(exp(t)))", "t^100000"])
    def test_overflowing_connection_coefficient_becomes_error_rows(
            self, runner, tmp_path, coeff):
        # the seed is evaluated while the bundle is built: no rows, exit 2
        f = tmp_path / "over.scn"
        f.write_text(DEMO_SO2.replace("coeffs = (2 + sin(t)) / 4", f"coeffs = {coeff}"))
        r = runner.invoke(main, ["check", str(f), "--strict"])
        assert r.exit_code == 2
        assert "floating-point range" in r.stderr
        assert "Traceback" not in r.output + r.stderr
        assert "checks," not in r.output


class TestParserDepth:
    def test_deep_nesting_is_a_parse_error(self):
        for src in ("(" * 3000 + "t" + ")" * 3000, "-" * 3000 + "t",
                    "sin(" * 3000 + "t" + ")" * 3000):
            with pytest.raises(ParseError) as exc:
                parse_expr(src)
            assert "nested deeper" in str(exc.value)

    def test_offset_is_the_first_token_beyond_the_bound(self, monkeypatch):
        monkeypatch.setattr(expr_module, "MAX_DEPTH", 3)
        assert parse_expr("((t))") == parse_expr("t")
        assert parse_expr("--t") == Neg(Neg(Var()))
        with pytest.raises(ParseError) as exc:
            parse_expr("(((t)))")
        assert exc.value.offset == 3
        with pytest.raises(ParseError) as exc:
            parse_expr("1 + t^-(t)")
        assert exc.value.offset == 8

    def test_cli_reports_deep_nesting_as_input_error(self, runner, tmp_path):
        f = tmp_path / "deep.scn"
        f.write_text(DEMO_SO2.replace("coeffs = (2 + sin(t)) / 4",
                                      "coeffs = " + "(" * 3000 + "t" + ")" * 3000))
        r = runner.invoke(main, ["check", str(f)])
        assert r.exit_code == 2
        assert "nested deeper" in r.stderr
        assert "Traceback" not in r.output + r.stderr


class TestRegionBounds:
    @pytest.mark.parametrize("bounds,bad", [
        ("0 .. 37", 37), ("24 .. 3", 24), ("-1 .. 5", -1), ("3 .. 24", 24)])
    def test_out_of_range_bound_names_the_line(self, bounds, bad):
        text = DEMO_SO2.replace("region alpha = 0 .. 13", f"region alpha = {bounds}")
        with pytest.raises(ScenarioError, match=rf"^line 8: region 'alpha' bound {bad} "
                                                r"is outside 0 \.\. 23$"):
            parse_scenario(text)

    def test_bounds_are_checked_against_a_later_points_line(self):
        text = "[space]\nregion a = 0 .. 9\npoints = 8\n[group]\nkind = gl(1)\n"
        with pytest.raises(ScenarioError, match="line 2: region 'a' bound 9"):
            parse_scenario(text)
        ok = "[space]\nregion a = 0 .. 9\npoints = 10\n[group]\nkind = gl(1)\n"
        assert parse_scenario(ok).regions == {"a": (0, 9)}

    def test_cli_rejects_wrapping_bounds(self, runner, tmp_path):
        f = tmp_path / "wrap.scn"
        f.write_text(DEMO_SO2.replace("region alpha = 0 .. 13", "region alpha = 0 .. 37"))
        r = runner.invoke(main, ["check", str(f)])
        assert r.exit_code == 2
        assert "line 8" in r.stderr


class TestSeedIsPartOfTheBuild:
    @pytest.mark.parametrize("coeffs,message", [
        ("1/(t - t)", "division by zero"),
        ("exp(exp(exp(t)))", "floating-point range"),
        ("1; 2", "connection coeffs: 2 entries, algebra rank 1"),
    ])
    def test_unusable_seed_is_unusable_input(self, runner, tmp_path, coeffs, message):
        f = tmp_path / "seed.scn"
        f.write_text(DEMO_SO2.replace("coeffs = (2 + sin(t)) / 4", f"coeffs = {coeffs}"))
        r = runner.invoke(main, ["check", str(f)])
        assert r.exit_code == 2
        assert message in r.stderr
        assert "Traceback" not in r.output + r.stderr

    def test_seed_outside_the_span_is_unusable_input(self, runner, tmp_path):
        f = tmp_path / "span.scn"
        f.write_text(DEMO_SO2.replace("coeffs = (2 + sin(t)) / 4",
                                      "row = 1; 0\nrow = 0; 1"))
        r = runner.invoke(main, ["check", str(f)])
        assert r.exit_code == 2
        assert "leaves span(lie_basis)" in r.stderr

    @pytest.mark.parametrize("suite", ["cocycle", "liehom"])
    def test_suites_without_connection_keys_leave_the_seed_alone(
            self, runner, tmp_path, suite):
        f = tmp_path / "seed.scn"
        f.write_text(DEMO_SO2.replace("coeffs = (2 + sin(t)) / 4", "coeffs = 1/(t - t)"))
        r = runner.invoke(main, ["check", str(f), "--suite", suite, "--strict"])
        assert r.exit_code == 0
        assert "failed" in r.output

    @pytest.mark.parametrize("suite,calls", [
        ("all", 1), ("connection", 1), ("roundtrip", 1), ("cocycle", 0), ("liehom", 0)])
    def test_seed_is_evaluated_once_when_needed(self, monkeypatch, suite, calls):
        seen = []
        build = checks_module.build_seed

        def counting(*args):
            seen.append(args)
            return build(*args)

        monkeypatch.setattr(checks_module, "build_seed", counting)
        report = run_checks(parse_scenario(DEMO_SO2), suite)
        assert report.passed
        assert len(seen) == calls


class TestSizeLimits:
    def test_points_above_the_limit_name_the_line(self):
        text = DEMO_SO2.replace("points = 24", f"points = {MAX_POINTS + 1}")
        with pytest.raises(ScenarioError, match=rf"^line 7: points = {MAX_POINTS + 1} "
                                                rf"exceeds the size limit {MAX_POINTS}$"):
            parse_scenario(text)

    def test_points_at_the_limit_are_admitted(self, monkeypatch):
        monkeypatch.setattr(scenario_module, "MAX_POINTS", 24)
        assert parse_scenario(DEMO_SO2).n_points == 24
        with pytest.raises(ScenarioError, match="line 7: points = 25 exceeds"):
            parse_scenario(DEMO_SO2.replace("points = 24", "points = 25"))

    @pytest.mark.parametrize("kind", ["gl", "torus"])
    @pytest.mark.parametrize("n", [MAX_AMBIENT + 1, 10 ** 12])
    def test_group_size_above_the_limit_names_the_kind(self, kind, n):
        # the check comes before the basis of n**4 entries is allocated
        with pytest.raises(ScenarioError, match=rf"^group kind {kind}\({n}\) exceeds "
                                                rf"the size limit n <= {MAX_AMBIENT}$"):
            model_by_name(f"{kind}({n})")

    def test_group_size_at_the_limit_is_admitted(self, monkeypatch):
        monkeypatch.setattr(groups_module, "MAX_AMBIENT", 3)
        assert model_by_name("gl(3)").ambient == 3
        assert model_by_name("torus(3)").rank == 3
        for kind in ("gl(4)", "torus(4)", " GL( 4 ) "):
            with pytest.raises(ScenarioError, match="exceeds the size limit n <= 3"):
                model_by_name(kind)

    @pytest.mark.parametrize("name", [f"trivial({MAX_AMBIENT + 1})",
                                      f"gl1_diag_powers({', '.join(['1'] * (MAX_AMBIENT + 1))})"])
    def test_representation_rank_is_bounded_too(self, name):
        with pytest.raises(ScenarioError, match=rf"has rank {MAX_AMBIENT + 1}, "
                                                rf"above the size limit {MAX_AMBIENT}$"):
            rep_by_name(name)
        assert rep_by_name(f"trivial({MAX_AMBIENT})").n == MAX_AMBIENT

    def test_every_demo_fits_at_benchmark_size(self):
        assert MAX_POINTS >= 480 and MAX_AMBIENT >= 2
        for text in DEMOS.values():
            scn = parse_scenario(text.replace("points = 24", "points = 480"))
            assert model_by_name(scn.group_kind).ambient <= 2

    def test_cli_reports_an_oversized_group(self, runner, tmp_path):
        f = tmp_path / "big.scn"
        f.write_text(DEMO_SO2.replace("kind = so(2)", "kind = gl(1000)"))
        r = runner.invoke(main, ["check", str(f)])
        assert r.exit_code == 2
        assert "gl(1000) exceeds the size limit" in r.stderr
        assert "Traceback" not in r.output + r.stderr
