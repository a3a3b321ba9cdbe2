"""Front-end inputs that used to escape as tracebacks or be reinterpreted."""

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
from sheafgauge import expr as expr_module
from sheafgauge.expr import Neg, Var
from sheafgauge.cli import main
from sheafgauge.scenario import DEMO_SO2


class TestOverflow:
    @pytest.mark.parametrize("src,t,offset", [
        ("exp(exp(exp(t)))", 6.0, 0),        # the outer exp overflows
        ("1 + exp(exp(t))", 7.0, 4),
        ("t^100000", 2.0, 1),
        ("2 * t^400", 10.0, 5),
        ("(t * 1e200) * 1e200", 1.0, 12),     # product value leaves the range
        ("1e400 + t", 0.0, 0),                # literal that is already infinite
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_is_a_domain_error_at_the_node(self, src, t, offset):
        with pytest.raises(ExprDomainError) as exc:
            eval_expr(parse_expr(src), t)
        assert exc.value.offset == offset
        assert "floating-point range" in str(exc.value)

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
        # like every error after the bundle is built, e.g. 1/(t - t) here
        f = tmp_path / "over.scn"
        f.write_text(DEMO_SO2.replace("coeffs = (2 + sin(t)) / 4", f"coeffs = {coeff}"))
        r = runner.invoke(main, ["check", str(f), "--strict"])
        assert r.exit_code == 1
        assert "Traceback" not in r.output + r.stderr
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert "17 checks, 12 passed, 5 failed" in r.output


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
