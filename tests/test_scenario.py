"""Scenario text format: parsing, validation, builders."""

import numpy as np
import pytest

from helpers import coord
from sheafgauge import (
    ExprDomainError,
    ScenarioError,
    SingularMatrixError,
    SpanError,
    build_cover,
    build_group,
    build_principal,
    build_representation,
    build_seed,
    load_demo,
    load_scenario,
    parse_scenario,
)
from sheafgauge.scenario import DEMO_SO2, DEMOS, demo_names

MINIMAL = """\
name = tiny
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


def built(text):
    scn = parse_scenario(text)
    cover = build_cover(scn)
    group = build_group(scn)
    return scn, cover, group


class TestParsing:
    def test_demo_text_round_trip(self):
        scn = parse_scenario(DEMO_SO2)
        assert scn.name == "so2"
        assert scn.n_points == 24
        assert scn.regions == {"alpha": (0, 13), "beta": (12, 1)}
        assert scn.group_kind == "so(2)"
        assert set(scn.cocycle_rows) == {("alpha", "beta")}
        rows = scn.cocycle_rows[("alpha", "beta")]
        assert len(rows) == 2 and all(len(r) == 2 for r in rows)
        assert scn.representation == "so2_in_gl2"
        assert scn.seed_chart == "alpha"
        assert len(scn.seed_coeffs) == 1
        assert scn.tolerances == {}

    def test_demos_all_parse_and_build(self):
        assert demo_names() == ["mobius", "shear-frame", "so2"]
        for name in demo_names():
            scn = load_demo(name)
            cover = build_cover(scn)
            group = build_group(scn)
            build_principal(scn, cover, group)

    def test_inline_comments_and_blanks(self):
        scn = parse_scenario(
            "name = c  # trailing\n\n# full line\n" + MINIMAL[len("name = tiny\n"):])
        assert scn.name == "c"
        assert scn.n_points == 12

    def test_tolerance_overrides(self):
        scn = parse_scenario(MINIMAL + "[tolerances]\ncocycle.unit = 1e-7\n")
        assert scn.tolerance("cocycle.unit", 1e-12) == 1e-7
        assert scn.tolerance("other", 1e-12) == 1e-12

    def test_default_point_count(self):
        text = MINIMAL.replace("points = 12\n", "")
        assert parse_scenario(text).n_points == 24

    def test_seed_rows_collected(self):
        scn = load_demo("shear-frame")
        assert scn.seed_coeffs is None
        assert len(scn.seed_rows) == 2


BAD_TEXTS = {
    "unterminated header": ("[space\npoints = 4\n", "unterminated"),
    "empty header": ("[]\n", "empty section"),
    "unknown section": ("[fiber]\n", "unknown section"),
    "key before sections": ("kind = so(2)\n", "outside any section"),
    "missing equals": ("[space]\npoints\n", "key = value"),
    "bad points": ("[space]\npoints = many\n", "integer"),
    "zero points": ("[space]\npoints = 0\n", "positive"),
    "bad range": ("[space]\nregion alpha = 0 to 9\n", "range"),
    "repeated region": (
        "[space]\nregion a = 0 .. 3\nregion a = 2 .. 5\n", "repeated"),
    "unknown space key": ("[space]\nvolume = 2\n", "unknown space key"),
    "group key": ("[group]\nname = so(2)\n", "unknown group key"),
    "cocycle key": (
        MINIMAL + "[cocycle beta alpha2]\n", "unknown"),
    "non-row cocycle line": (
        "[cocycle a b]\ncol = 1\n", "row ="),
    "bad expression": (
        "[cocycle a b]\nrow = cos(\n", "bad expression"),
    "empty expression": (
        "[cocycle a b]\nrow = 1;;2\n", "empty expression"),
    "representation key": ("[representation]\nkind = trivial(2)\n", "name ="),
    "second connection": (
        MINIMAL + "[connection alpha]\ncoeffs = 0\n[connection beta]\n",
        "second connection"),
    "seed twice": (
        MINIMAL + "[connection alpha]\ncoeffs = 0\nrow = 0; 0\n",
        "already seeded"),
    "unknown connection key": (
        MINIMAL + "[connection alpha]\nvalue = 0\n", "unknown connection key"),
    "bad tolerance": (
        MINIMAL + "[tolerances]\nx = soft\n", "float"),
    "no regions": ("[group]\nkind = so(2)\n", "no regions"),
    "no group": (
        "[space]\nregion a = 0 .. 23\n", "no \\[group\\] section"),
    "cocycle unknown region": (
        MINIMAL + "[cocycle alpha omega]\nrow = 1\n", "unknown region"),
    "ragged cocycle": (
        MINIMAL.replace("row = sin(t); cos(t)\n", ""), "square"),
    "connection without data": (
        MINIMAL + "[connection alpha]\n", "no coeffs or rows"),
    "connection unknown chart": (
        MINIMAL + "[connection omega]\ncoeffs = 0\n", "unknown region"),
}


class TestParseErrors:
    @pytest.mark.parametrize("label", sorted(BAD_TEXTS))
    def test_rejected_with_message(self, label):
        text, fragment = BAD_TEXTS[label]
        with pytest.raises(ScenarioError, match=fragment):
            parse_scenario(text)

    def test_duplicate_cocycle_either_order(self):
        dup = MINIMAL + "[cocycle beta alpha]\nrow = 1; 0\nrow = 0; 1\n"
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(dup)


class TestBuilders:
    def test_cover_regions_wrap(self):
        _, cover, _ = built(MINIMAL)
        assert cover.regions["alpha"] == frozenset(range(8))
        assert cover.regions["beta"] == frozenset({6, 7, 8, 9, 10, 11, 0, 1})
        assert cover.overlap_points("alpha", "beta") == frozenset({0, 1, 6, 7})

    def test_principal_keeps_global_extension(self):
        scn, cover, group = built(MINIMAL)
        P = build_principal(scn, cover, group)
        full = P.ext[("alpha", "beta")]
        assert full.points == frozenset(cover.points)
        entry = P.entry("alpha", "beta")
        assert entry.points == cover.overlap_points("alpha", "beta")
        for p in entry.points:
            assert entry.data[p].max_abs_diff(full.data[p]) == 0.0

    def test_unnamed_overlap_rejected(self):
        text = """\
[space]
points = 12
region alpha = 0 .. 7
region beta  = 6 .. 1
[group]
kind = gl1+
"""
        scn, cover, group = built(text)
        with pytest.raises(ScenarioError, match="no cocycle entry"):
            build_principal(scn, cover, group)

    def test_ambient_mismatch_rejected(self):
        text = MINIMAL.replace("kind = so(2)", "kind = gl(1)")
        scn, cover, group = built(text)
        with pytest.raises(ScenarioError, match="ambient"):
            build_principal(scn, cover, group)

    def test_representation_requires_section(self):
        scn, _, group = built(MINIMAL)
        with pytest.raises(ScenarioError, match="representation"):
            build_representation(scn, group)

    def test_seed_absent_returns_none(self):
        scn, cover, group = built(MINIMAL)
        assert build_seed(scn, cover, group) is None

    def test_seed_coeffs_cover_all_points(self):
        scn = parse_scenario(MINIMAL + "[connection alpha]\ncoeffs = sin(t)\n")
        cover = build_cover(scn)
        group = build_group(scn)
        chart, form = build_seed(scn, cover, group)
        assert chart == "alpha"
        assert set(form.data) == set(cover.points)
        for p in cover.points:
            t = float(coord(cover, "alpha", p)[0]) if p in cover.regions["alpha"] \
                else float(coord(cover, "beta", p)[0])
            assert form.data[p][0, 0] == np.sin(t)

    def test_seed_coeff_count_checked(self):
        scn = parse_scenario(MINIMAL + "[connection alpha]\ncoeffs = 1; 2\n")
        cover = build_cover(scn)
        group = build_group(scn)
        with pytest.raises(ScenarioError, match="rank"):
            build_seed(scn, cover, group)

    def test_seed_rows_expanded_in_basis(self):
        scn = load_demo("shear-frame")
        cover = build_cover(scn)
        group = build_group(scn)
        chart, form = build_seed(scn, cover, group)
        assert form.data[0].shape == (1, 4)
        t = float(coord(cover, chart, 0)[0])
        want = np.array([[np.sin(t) / 2, (1 + np.cos(t)) / 4,
                          0.0, 1 / (2 + np.sin(t))]])
        assert np.allclose(form.data[0], want, atol=1e-15)

    def test_seed_rows_must_lie_in_span(self):
        text = """\
[space]
points = 8
region alpha = 0 .. 5
region beta  = 4 .. 1
[group]
kind = torus(2)
[cocycle alpha beta]
row = 1; 0
row = 0; 1
[connection alpha]
row = 0; 1
row = 0; 0
"""
        scn, cover, group = built(text)
        with pytest.raises(SpanError) as exc:
            build_seed(scn, cover, group)
        assert exc.value.residual >= 0.5

    def test_seed_and_cocycle_entry_fail_at_one_point(self):
        # exp(1000 * t) overflows from point 3 (t = 0.785398) on; the first
        # of those points in point_order is 10 (t = 2.61799)
        seed = parse_scenario(DEMO_SO2.replace("coeffs = (2 + sin(t)) / 4",
                                               "coeffs = exp(1000 * t)"))
        with pytest.raises(ExprDomainError, match="t = 2.61799$"):
            build_seed(seed, build_cover(seed), build_group(seed))
        entry = parse_scenario(DEMO_SO2.replace("row = cos(t); -sin(t)",
                                                "row = cos(t) + exp(1000 * t); -sin(t)"))
        with pytest.raises(ExprDomainError, match="t = 2.61799$"):
            build_principal(entry, build_cover(entry), build_group(entry))

    def test_failing_entry_keeps_its_offset_under_its_section(self):
        # the CLI tests check the messages' section prefixes
        entry = parse_scenario(DEMO_SO2.replace("row = cos(t); -sin(t)",
                                                "row = 1 / sin(t); -sin(t)"))
        with pytest.raises(ExprDomainError, match="^cocycle ") as exc:
            build_principal(entry, build_cover(entry), build_group(entry))
        assert exc.value.offset == 2
        seed = parse_scenario(DEMO_SO2.replace("coeffs = (2 + sin(t)) / 4",
                                               "coeffs = 1 / (t - t)"))
        with pytest.raises(ExprDomainError, match="^connection ") as exc:
            build_seed(seed, build_cover(seed), build_group(seed))
        assert exc.value.offset == 2

    @pytest.mark.parametrize("demo,old,new,where", [
        ("so2", "row = cos(t); -sin(t)", "row = cos(t); 2 / sin(t)",
         "cocycle (alpha, beta): row 1, entry 2"),
        ("so2", "row = sin(t); cos(t)", "row = sin(t); 2 / sin(t)",
         "cocycle (alpha, beta): row 2, entry 2"),
        # 2 / sin(t) is shared by entries (1, 2) and (2, 1): it belongs to
        # the first of them in row-major order
        ("so2", "row = cos(t); -sin(t)\nrow = sin(t); cos(t)",
         "row = cos(t); 2 / sin(t)\nrow = 2 / sin(t); cos(t)",
         "cocycle (alpha, beta): row 1, entry 2"),
        ("so2", "coeffs = (2 + sin(t)) / 4", "coeffs = 2 / sin(t)",
         "connection alpha: entry 1"),
        ("shear-frame", "row = 0; 1 / (2 + sin(t))", "row = 0; 2 / sin(t)",
         "connection alpha: row 2, entry 2"),
    ])
    def test_failing_entry_is_named_by_row_and_entry(self, demo, old, new, where):
        scn = parse_scenario(DEMOS[demo].replace(old, new))
        build = build_principal if where.startswith("cocycle") else build_seed
        with pytest.raises(ExprDomainError) as exc:
            build(scn, build_cover(scn), build_group(scn))
        assert str(exc.value) == f"{where}: division by zero"
        assert exc.value.offset == 2

    def test_singular_entry_is_named_under_its_section(self):
        scn = parse_scenario(DEMOS["mobius"].replace("[cocycle gamma alpha]\nrow = -1",
                                                     "[cocycle gamma alpha]\nrow = 0"))
        with pytest.raises(SingularMatrixError) as exc:
            build_principal(scn, build_cover(scn), build_group(scn))
        assert str(exc.value) == ("cocycle (gamma, alpha): determinant 0.000e+00 "
                                  "below floor 1.0e-09 at point 0")
        assert exc.value.point == 0

    def test_seed_span_error_names_the_first_point_in_point_order(self):
        # alpha's points come first in the cover, 6 .. 11 before 0 and 1;
        # sin(t) leaves the torus algebra everywhere but at 0 and 6 (within
        # rounding), so the cover's order would fail at 7, point_order at 1
        text = """\
[space]
points = 12
region alpha = 6 .. 1
region beta  = 0 .. 7
[group]
kind = torus(2)
[cocycle alpha beta]
row = 1; 0
row = 0; 1
[connection alpha]
row = 0; sin(t)
row = 0; 0
"""
        scn, cover, group = built(text)
        with pytest.raises(SpanError) as exc:
            build_seed(scn, cover, group)
        assert exc.value.point == 1

    def test_seed_row_shape_checked(self):
        scn = parse_scenario(MINIMAL + "[connection alpha]\nrow = 0; 0\n")
        cover = build_cover(scn)
        group = build_group(scn)
        with pytest.raises(ScenarioError, match="ambient"):
            build_seed(scn, cover, group)


class TestLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.scn")

    def test_file_round_trip(self, tmp_path):
        f = tmp_path / "tiny.scn"
        f.write_text(MINIMAL)
        assert load_scenario(f).name == "tiny"

    def test_unknown_demo(self):
        with pytest.raises(ScenarioError, match="unknown demo"):
            load_demo("klein")
