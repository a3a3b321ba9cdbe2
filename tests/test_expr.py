"""Expression grammar: parsing, jet evaluation, printing, derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import to_source
from sheafgauge import (
    ExprDomainError,
    ParseError,
    catalog_rows,
    eval_expr,
    gl1_positive_model,
    gl_model,
    parse_expr,
    so2_model,
)
from sheafgauge.expr import BinOp, Call, Neg, Num, Pi, Var

MODELS = (gl1_positive_model(), so2_model(), gl_model(2))

ANGLES = [2 * math.pi * k / 24 for k in range(24)]


def jet_at(src, t):
    return eval_expr(parse_expr(src), t)


class TestEvaluation:
    def test_coordinate(self):
        j = jet_at("t", 3.0)
        assert j.value == 3.0 and j.gradient[0] == 1.0

    def test_square(self):
        j = jet_at("t^2", 3.0)
        assert j.value == 9.0 and j.gradient[0] == 6.0

    def test_shifted_sine(self):
        j = jet_at("(2 + sin(t))", 0.0)
        assert j.value == 2.0 and j.gradient[0] == 1.0

    def test_zero_literal(self):
        j = jet_at("0", 5.0)
        assert j.value == 0.0 and j.gradient[0] == 0.0

    def test_pi_constant(self):
        j = jet_at("pi", 1.0)
        assert j.value == math.pi and j.gradient[0] == 0.0

    def test_pythagorean_identity(self):
        e = parse_expr("cos(t)*cos(t) + sin(t)*sin(t)")
        for t in ANGLES:
            j = eval_expr(e, t)
            assert abs(j.value - 1.0) <= 1e-15
            # the two Leibniz halves cancel exactly
            assert j.gradient[0] == 0.0

    def test_exponential_chain(self):
        j = jet_at("exp(2*t)", 0.5)
        assert j.value == pytest.approx(math.e, rel=1e-15)
        assert j.gradient[0] == pytest.approx(2 * math.e, rel=1e-15)

    def test_negative_exponent(self):
        j = jet_at("t^-1", 2.0)
        assert j.value == 0.5 and j.gradient[0] == -0.25


class TestGrammar:
    def test_precedence(self):
        assert jet_at("2 + 3*4", 0.0).value == 14.0
        assert jet_at("2 * 3^2", 0.0).value == 18.0
        assert jet_at("(2 + 3)*4", 0.0).value == 20.0

    def test_power_is_right_associative(self):
        assert jet_at("2^3^2", 0.0).value == 512.0

    def test_division_is_left_associative(self):
        assert jet_at("6/3/2", 0.0).value == 1.0

    def test_unary_minus_binds_below_power(self):
        assert jet_at("-t^2", 2.0).value == -4.0
        assert jet_at("2^-3", 0.0).value == 0.125

    def test_whitespace_irrelevant(self):
        assert parse_expr("1+2*t") == parse_expr(" 1 + 2 * t ")

    def test_scientific_numbers(self):
        assert jet_at("1.5e-2", 0.0).value == 0.015
        assert jet_at(".5", 0.0).value == 0.5


class TestErrors:
    @pytest.mark.parametrize("src,offset", [
        ("cos(", 4),
        (")", 0),
        ("2 +", 3),
        ("t t", 2),
        ("foo(t)", 0),
        ("2,3", 1),
        ("", 0),
    ])
    def test_parse_errors_carry_offsets(self, src, offset):
        with pytest.raises(ParseError) as exc:
            parse_expr(src)
        assert exc.value.offset == offset
        assert exc.value.expected

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExprDomainError) as exc:
            eval_expr(parse_expr("t^0.5"), 2.0)
        assert exc.value.offset == 1

    def test_division_by_zero_positioned(self):
        with pytest.raises(ExprDomainError) as exc:
            eval_expr(parse_expr("1/(t - t)"), 3.0)
        assert exc.value.offset == 1

    def test_zero_to_negative_power_rejected(self):
        with pytest.raises(ExprDomainError):
            eval_expr(parse_expr("t^-1"), 0.0)


def catalog_sources():
    out = []
    for model in MODELS:
        for rows in catalog_rows(model):
            for row in rows:
                out.extend(row)
    return sorted(set(out))


class TestPrinting:
    @pytest.mark.parametrize("src", catalog_sources())
    def test_catalog_round_trip(self, src):
        e = parse_expr(src)
        assert parse_expr(to_source(e)) == e

    def test_round_trip_fixes_spacing_only(self):
        e = parse_expr("-(2+sin(t))^3/4")
        assert to_source(e) == "-(2.0 + sin(t)) ^ 3.0 / 4.0"


def ast_nodes():
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(
            lambda v: Num(v, 0)),
        st.just(Var(0)),
        st.just(Pi(0)),
    )

    def extend(children):
        return st.one_of(
            children.map(lambda e: Neg(e, 0)),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map(
                lambda fe: Call(fe[0], fe[1], 0)),
            st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]),
                      children, children).map(
                lambda t: BinOp(t[0], t[1], t[2], 0)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestPrinterParserAdjunction:
    @settings(max_examples=300, deadline=None)
    @given(ast_nodes())
    def test_print_parse_round_trip(self, e):
        assert parse_expr(to_source(e)) == e


class TestDerivativeAgainstFiniteDifferences:
    STEP = 1e-6

    @pytest.mark.parametrize("src", catalog_sources())
    def test_catalog_gradients(self, src):
        e = parse_expr(src)
        for t in ANGLES:
            try:
                j = eval_expr(e, t)
                hi = eval_expr(e, t + self.STEP).value
                lo = eval_expr(e, t - self.STEP).value
            except ExprDomainError:
                continue
            fd = (hi - lo) / (2 * self.STEP)
            scale = max(1.0, abs(fd))
            assert abs(j.gradient[0] - fd) <= 1e-6 * scale
