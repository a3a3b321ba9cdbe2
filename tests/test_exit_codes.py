"""The exit-code contract: pinned cases and generated scenario text.

Every input ends in exit 0 (a completed run), 1 (``--strict`` with a
failed check) or 2 (unusable input), and never in a traceback.  The
generated scenarios are the built-in demos with one part replaced: an
expression entry of a cocycle or seed row, the powers of
``gl1_diag_powers``, or the ``points`` and ``region`` lines.  Hypothesis
runs derandomized with a bounded number of examples, so the examples
are the same on every run.
"""

import re

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafgauge import SUITES, Jet, NonFiniteError, SheafGaugeError
from sheafgauge.cli import main
from sheafgauge.scenario import DEMO_MOBIUS, DEMO_SHEAR_FRAME, DEMO_SO2, DEMOS

FUZZ = settings(max_examples=30, derandomize=True, deadline=None)

# Lines whose right-hand side is a list of expressions separated by ';'.
_EXPR_LINE = re.compile(r"^(row|coeffs) = (.*)$", re.M)


def run_cli(text, suite: str, strict: bool):
    """Run ``check`` on a file holding ``text``: a str is written as
    UTF-8, bytes as they are."""
    runner = CliRunner()
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    with runner.isolated_filesystem():
        with open("fuzz.scn", "wb") as fh:
            fh.write(data)
        args = ["check", "fuzz.scn", "--suite", suite] + (["--strict"] if strict else [])
        return runner.invoke(main, args)


def assert_contract(result) -> None:
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception))
    assert "Traceback" not in result.output
    assert "Traceback" not in result.stderr


def assert_input_error(result, message: str) -> None:
    assert_contract(result)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and message in result.stderr
    assert "scenario:" not in result.stdout


APART = """\
name = apart
[space]
points = 24
region alpha = 0 .. 13
region beta  = 12 .. 1
region gamma = 5 .. 6
[group]
kind = gl(1)
[cocycle alpha beta]
row = 1
[cocycle alpha gamma]
row = 1
[cocycle beta gamma]
row = 3
"""


class TestPinnedCases:
    def test_overflowing_representation_exits_2(self):
        text = DEMO_MOBIUS.replace("gl1_diag_powers(1, 2)", "gl1_diag_powers(1, 100000)")
        for suite in ("all", "liehom", "roundtrip"):
            assert_input_error(
                run_cli(text, suite, False),
                "representation gl1_diag_powers(1, 100000) leaves the "
                "floating-point range at point")

    def test_overflow_while_pushing_the_cocycle_exits_2(self):
        # a = -3 on the gamma-alpha overlap: (-3)^1000 overflows in the build
        text = (DEMO_MOBIUS.replace("gl1_diag_powers(1, 2)", "gl1_diag_powers(1, 1000)")
                .replace("row = -1", "row = -3"))
        assert_input_error(run_cli(text, "cocycle", False),
                           "(a = -3, power 1000)")

    @pytest.mark.parametrize("powers", ["1,,2", "-", "1-2", ","])
    def test_malformed_powers_exit_2(self, powers):
        text = DEMO_MOBIUS.replace("gl1_diag_powers(1, 2)", f"gl1_diag_powers({powers})")
        assert_input_error(run_cli(text, "all", False),
                           f"unknown representation 'gl1_diag_powers({powers})'")

    def test_suites_without_the_representation_are_unaffected(self):
        text = DEMO_MOBIUS.replace("gl1_diag_powers(1, 2)", "gl1_diag_powers(1, 100000)")
        r = run_cli(text, "cocycle", True)
        assert_contract(r)
        assert r.exit_code == 0

    def test_overflow_while_completing_the_connection_gives_error_rows(self):
        # The finite cocycle entry -1e300 overflows in the adjoint action
        # that propagates the seed to the next chart.
        text = DEMO_SHEAR_FRAME.replace("row = 1; t", "row = 1; -1e300")
        r = run_cli(text, "connection", False)
        assert_contract(r)
        assert r.exit_code == 0
        assert "connection.eq7" in r.stdout and "3 checks, 0 passed, 3 failed" in r.stdout
        assert run_cli(text, "connection", True).exit_code == 1

    def test_empty_representation_name_exits_2(self):
        r = run_cli(DEMO_SO2.replace("name = so2_in_gl2", "name ="), "all", True)
        assert_input_error(r, "unknown representation ''")
        assert r.stderr == "error: unknown representation ''\n"

    def test_representation_section_without_a_name_exits_2(self):
        r = run_cli(DEMO_SO2.replace("name = so2_in_gl2\n", ""), "all", True)
        assert_input_error(r, "representation section has no name")
        assert r.stderr.count("\n") == 1

    @pytest.mark.parametrize("after, again", [
        ("name = so2", "name = so2"),
        ("points = 24", "points = 48"),
        ("kind = so(2)", "kind = gl(2)"),
        ("name = so2_in_gl2", "name = trivial(2)"),
        ("cocycle.unit = 1e-7", "cocycle.unit = 1e-3"),
        ("cocycle.unit = 1e-7", "[tolerances]\ncocycle.unit = 1e-3"),
        ("kind = so(2)", "[group]\nkind = so(2)"),
    ])
    def test_repeated_single_valued_key_exits_2(self, after, again):
        # each of these keys takes one value, which a second line would replace
        lines = (DEMO_SO2 + "[tolerances]\ncocycle.unit = 1e-7\n").splitlines()
        at = lines.index(after) + 1
        lines[at:at] = again.splitlines()
        key = after.partition("=")[0].strip()
        r = run_cli("\n".join(lines) + "\n", "all", False)
        assert_input_error(r, f"line {at + len(again.splitlines())}: repeated key {key!r}")
        assert r.stderr.count("\n") == 1

    def test_cocycle_for_regions_that_do_not_overlap_exits_2(self):
        # beta and gamma share no point: the entry could be neither checked nor used
        r = run_cli(APART, "all", False)
        assert_input_error(r, "cocycle (beta, gamma): regions 'beta' and 'gamma' "
                              "do not overlap")
        assert r.stderr.count("\n") == 1

    def test_scenario_that_is_not_utf8_exits_2(self):
        r = run_cli(("# caf\u00e9\n" + DEMO_SO2).encode("latin-1"), "all", False)
        assert_input_error(r, "cannot read scenario fuzz.scn: not UTF-8 text "
                              "(byte 0xe9 at offset 5)")
        assert r.stderr.count("\n") == 1

    def test_offset_counts_a_leading_bom(self):
        r = run_cli(b"\xef\xbb\xbf# caf\xe9\n", "all", False)
        assert_input_error(r, "not UTF-8 text (byte 0xe9 at offset 8)")

    def test_scenario_with_a_bom_is_read(self):
        r = run_cli("\ufeff" + DEMO_SO2, "all", False)
        assert_contract(r)
        assert r.exit_code == 0
        assert r.stdout == CliRunner().invoke(main, ["demo", "so2"]).stdout

    @pytest.mark.parametrize("build", [
        lambda: Jet(1.0, [float("nan")]),
        lambda: Jet(float("inf"), [1.0]),
        lambda: Jet(1.0, [1e-200]) / Jet(1e-200, [1.0]),  # divisor squared is 0
    ])
    def test_non_finite_jet_is_a_package_error_and_a_value_error(self, build):
        assert issubclass(NonFiniteError, SheafGaugeError)
        assert issubclass(NonFiniteError, ValueError)
        with pytest.raises(NonFiniteError, match="^jet components must be finite$"):
            build()


suites = st.sampled_from(sorted(SUITES))

numbers = st.one_of(
    st.integers(-3, 400).map(str),
    st.sampled_from(["0", "0.5", "1e-300", "1e300", "1e400", "2.5e8", "007", "1."]),
)


def _expressions():
    leaves = st.one_of(numbers, st.just("t"), st.just("pi"))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda x: f"{x[0]} {x[1]} {x[2]}"),
            st.tuples(inner, st.integers(-400, 400)).map(lambda x: f"{x[0]}^{x[1]}"),
            st.tuples(inner, inner).map(lambda x: f"{x[0]}^({x[1]})"),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(
                lambda x: f"{x[0]}({x[1]})"),
            inner.map(lambda x: f"-{x}"),
            inner.map(lambda x: f"({x})"),
        )

    well_formed = st.recursive(leaves, extend, max_leaves=8)
    garbage = st.text(alphabet="t0123456789.+-*/^() ;,sinpexco", max_size=16)
    return st.one_of(well_formed, garbage)


expressions = _expressions()


@st.composite
def with_expression(draw):
    """A demo with one entry of one cocycle or seed row replaced."""
    text = DEMOS[draw(st.sampled_from(sorted(DEMOS)))]
    lines = list(_EXPR_LINE.finditer(text))
    m = lines[draw(st.integers(0, len(lines) - 1))]
    entries = m.group(2).split(";")
    entries[draw(st.integers(0, len(entries) - 1))] = draw(expressions)
    line = f"{m.group(1)} = {';'.join(entries)}"
    return text[:m.start()] + line + text[m.end():]


powers = st.one_of(st.integers(-4, 4), st.integers(-10 ** 6, 10 ** 6))


@st.composite
def with_powers(draw):
    """The mobius demo pushed through generated ``gl1_diag_powers``."""
    pw = draw(st.lists(powers, min_size=1, max_size=4))
    name = f"gl1_diag_powers({', '.join(map(str, pw))})"
    return DEMO_MOBIUS.replace("gl1_diag_powers(1, 2)", name)


@st.composite
def with_space(draw):
    """A demo with generated ``points`` and ``region`` lines.

    Region bounds are mostly the demo's, rescaled to the new point count
    and moved by a few points, so that runs complete as well as fail;
    the rest lie anywhere, out of range included.
    """
    text = DEMOS[draw(st.sampled_from(sorted(DEMOS)))]
    old = int(re.search(r"^points = (\d+)$", text, re.M).group(1))
    n = draw(st.one_of(st.integers(3, 40), st.integers(-2, 2),
                       st.sampled_from([50_001, 10 ** 12])))
    text = re.sub(r"^points = .*$", f"points = {n}", text, flags=re.M)

    def bound(b: int) -> int:
        if draw(st.integers(0, 3)):
            return (b * n // old + draw(st.integers(-2, 2))) % max(n, 1)
        return draw(st.integers(-2, 45))

    def region(m):
        return f"region {m.group(1)} = {bound(int(m.group(2)))} .. {bound(int(m.group(3)))}"

    return re.sub(r"^region (\w+)\s*= (\d+) \.\. (\d+)$", region, text, flags=re.M)


class TestExitCodeContract:
    @FUZZ
    @given(with_expression(), suites, st.booleans())
    def test_generated_expressions(self, text, suite, strict):
        assert_contract(run_cli(text, suite, strict))

    @FUZZ
    @given(with_powers(), suites, st.booleans())
    def test_generated_representation_powers(self, text, suite, strict):
        assert_contract(run_cli(text, suite, strict))

    @FUZZ
    @given(with_space(), suites, st.booleans())
    def test_generated_points_and_regions(self, text, suite, strict):
        assert_contract(run_cli(text, suite, strict))
