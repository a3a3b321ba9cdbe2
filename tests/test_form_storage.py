"""How a form field stores its coefficients.

``OneForm``, ``MatrixOneForm`` and ``LieValuedOneForm`` keep the
coefficients of every point in one read-only float64 stack ``coeffs`` of
shape (P, dim, *tail), rows in ``point_order``.  ``from_stack`` checks
the stack once, with each kind's messages; restriction, relabelling,
chart transport and gluing keep the rows in ``point_order``.  A field of
any kind keeps its row shape when it has no rows.
"""

import random

import numpy as np
import pytest

from helpers import rank, stacked
from sheafgauge import (
    DimensionMismatchError,
    FieldMismatchError,
    LieValuedOneForm,
    MatrixField,
    MatrixOneForm,
    NonFiniteError,
    OneForm,
    SampledCover,
    ScalarField,
    d_field,
    gauge_form,
    gl_model,
    glue,
    mc,
    nabla_apply,
    point_order,
    pull_back_connection,
    random_scalar_field,
    random_section,
    rho_dot_form,
    transport_form,
)
from sheafgauge.jets import _StackedField
from sheafgauge.vconn import _apply_phibar

POINTS = [11, 2, 0, 10, 1]
ORDER = [0, 1, 10, 11, 2]           # sorted by string form
DIM = 2
BAD = [float("nan"), float("inf"), float("-inf")]


class Kind:
    """One form kind: its class, row tail and message name."""

    def __init__(self, cls, tail):
        self.cls, self.tail = cls, tail
        self.name = cls.KIND

    def build(self, region, data: dict):
        return stacked(self.cls, region, data)

    def rows(self, points, seed=0) -> dict:
        rng = np.random.default_rng(seed)
        return {p: rng.uniform(-2, 2, (DIM,) + self.tail) for p in points}

    def stack(self, points=ORDER, seed=0) -> np.ndarray:
        rows = self.rows(points, seed)
        return np.array([rows[p] for p in points]).reshape((len(points), DIM) + self.tail)


KINDS = [Kind(OneForm, ()), Kind(MatrixOneForm, (2, 3)), Kind(LieValuedOneForm, (3,))]


@pytest.fixture(params=KINDS, ids=lambda k: k.name)
def kind(request) -> Kind:
    return request.param


def two_chart_cover() -> SampledCover:
    """Charts u and v on POINTS, related by a different 2 x 2 jacobian per point."""
    rng = np.random.default_rng(5)
    coords = {(r, p): rng.uniform(-1, 1, DIM) for r in "uv" for p in POINTS}
    jac = {}
    for p in POINTS:
        m = np.eye(DIM) + rng.uniform(-0.3, 0.3, (DIM, DIM))
        jac[("u", "v", p)] = m
        jac[("v", "u", p)] = np.linalg.inv(m)
    return SampledCover(POINTS, {"u": POINTS, "v": POINTS}, coords, jac)


class TestStack:
    def test_coeffs_is_the_read_only_stack_of_the_rows(self, kind):
        rows = kind.rows(POINTS)
        f = kind.build("u", rows)
        assert f.ordered_points() == ORDER == point_order(POINTS)
        assert f.coeffs.dtype == np.float64
        assert f.coeffs.shape == (len(POINTS), DIM) + kind.tail
        assert np.array_equal(f.coeffs, np.array([f.data[p] for p in f.ordered_points()]))
        assert np.array_equal(f.coeffs, np.array([rows[p] for p in ORDER]))
        assert not f.coeffs.flags.writeable
        with pytest.raises(ValueError):
            f.coeffs[0] = 0.0

    def test_data_rows_are_read_only_views_of_the_stack(self, kind):
        f = kind.build("u", kind.rows(POINTS))
        assert list(f.data) == ORDER
        for p in POINTS:
            row = f.data[p]
            assert not row.flags.writeable and np.shares_memory(row, f.coeffs)
            with pytest.raises(ValueError):
                row[...] = 0.0
        with pytest.raises(TypeError):
            f.data[0] = f.data[1]

    def test_inputs_are_copied(self, kind):
        rows = kind.rows(POINTS)
        stack = kind.stack()
        f, g = kind.build("u", rows), kind.cls.from_stack("u", ORDER, stack)
        f_before, g_before = f.coeffs.copy(), g.coeffs.copy()
        rows[0][...] = 7.0
        stack[...] = 7.0
        assert np.array_equal(f.coeffs, f_before) and np.array_equal(g.coeffs, g_before)

    @pytest.mark.parametrize("bad", BAD)
    def test_non_finite_entry_anywhere_raises_the_kinds_message(self, kind, bad):
        stack = kind.stack()
        for index in np.ndindex(stack.shape):
            broken = stack.copy()
            broken[index] = bad
            with pytest.raises(NonFiniteError,
                               match=f"^{kind.name} coefficients must be finite$"):
                kind.cls.from_stack("u", ORDER, broken)

    def test_from_stack_rejects_points_out_of_order_or_repeated(self, kind):
        stack = kind.stack()
        for points in (POINTS, [0, 1, 10, 10, 2]):
            with pytest.raises(FieldMismatchError, match="distinct and in point_order"):
                kind.cls.from_stack("u", points, stack)

    def test_a_result_on_a_checked_field_reuses_its_point_order(self, so2_pipe,
                                                                 monkeypatch):
        # each of these results lies on the points of one input field, in
        # its order, which that field checked when it was built
        E = so2_pipe.E
        a = random_scalar_field("base", E.cover.points, 1, random.Random(3))
        s = random_section(E, random.Random(4))
        g = so2_pipe.P.cocycle[("alpha", "beta")]

        def refuse(cls, points):
            raise AssertionError("points checked again")

        monkeypatch.setattr(_StackedField, "_check_points", classmethod(refuse))
        assert d_field(a).ordered_points() == a.ordered_points()
        assert mc(so2_pipe.group, g).ordered_points() == g.ordered_points()
        for chart, w in _apply_phibar(so2_pipe.R, so2_pipe.D).forms.items():
            assert w.ordered_points() == so2_pipe.D.form(chart).ordered_points()
        for chart, w in pull_back_connection(E, so2_pipe.R, so2_pipe.nab).forms.items():
            assert w.ordered_points() == so2_pipe.nab.form(chart).ordered_points()
        for chart, w in nabla_apply(E, so2_pipe.nab, s).items():
            assert w.ordered_points() == s.components[chart].ordered_points()
        with pytest.raises(AssertionError, match="checked again"):   # points from outside
            OneForm.from_stack("u", ORDER, KINDS[0].stack())

    def test_from_stack_rejects_a_row_count_mismatch(self, kind):
        with pytest.raises(FieldMismatchError, match="4 points for 5"):
            kind.cls.from_stack("u", ORDER[:4], kind.stack())

    def test_from_stack_checks_the_row_shape(self, kind):
        error = FieldMismatchError if kind.cls is MatrixOneForm else DimensionMismatchError
        for bad in (kind.stack()[..., None], kind.stack()[:, 0]):
            with pytest.raises(error):
                kind.cls.from_stack("u", ORDER, bad)


class TestRowShapes:
    @pytest.mark.parametrize("build,error,message", [
        (lambda: OneForm.from_stack("u", [0], [[[1.0]]]),
         DimensionMismatchError, "one-form coefficients must be vectors"),
        (lambda: LieValuedOneForm.from_stack("u", [0], np.zeros((1, 4))),
         DimensionMismatchError, r"lie-valued one-form entries must be \(dim, m\) arrays"),
    ])
    def test_each_kind_keeps_its_messages(self, build, error, message):
        with pytest.raises(error, match=message):
            build()


class TestPointOrder:
    def test_restrict_selects_rows_in_point_order(self, kind):
        f = kind.build("u", kind.rows(POINTS))
        r = f.restrict({2, 10, 0})
        assert type(r) is type(f) and r.region == "u"
        assert r.ordered_points() == list(r.data) == [0, 10, 2]
        assert np.array_equal(r.coeffs, f.coeffs[[0, 2, 4]])
        assert not r.coeffs.flags.writeable
        assert np.array_equal(f.restrict(POINTS).coeffs, f.coeffs)
        with pytest.raises(FieldMismatchError):
            f.restrict({0, 99})

    def test_relabel_shares_the_stack(self, kind):
        f = kind.build("u", kind.rows(POINTS))
        g = f.relabel("v")
        assert type(g) is type(f) and g.region == "v"
        assert g.coeffs is f.coeffs and g.ordered_points() == ORDER

    def test_transport_form_keeps_point_order(self, kind):
        cover = two_chart_cover()
        f = kind.build("u", kind.rows(POINTS))
        t = transport_form(f, cover, "v")
        assert type(t) is type(f) and t.region == "v"
        assert t.ordered_points() == list(t.data) == ORDER
        assert not t.coeffs.flags.writeable
        for p in POINTS:
            want = np.einsum("il,i...->l...", cover.jacobian("u", "v", p), f.data[p])
            assert np.array_equal(t.data[p], want)

    def test_glue_keeps_point_order(self, kind):
        rows = kind.rows(POINTS)
        a = kind.build("a", {p: rows[p] for p in (11, 2, 0)})
        b = kind.build("b", {p: rows[p] for p in (0, 10, 1)})
        g = glue({"b": b, "a": a})
        assert type(g) is type(a) and g.region == "a+b"
        assert g.ordered_points() == list(g.data) == ORDER
        assert np.array_equal(g.coeffs, np.array([rows[p] for p in ORDER]))


# Every field kind, with the shape of one row.
ROWS = {OneForm: (DIM,), MatrixOneForm: (DIM, 2, 3), LieValuedOneForm: (DIM, 4),
        ScalarField: (1 + DIM,), MatrixField: (1 + DIM, 2, 2)}


def empties(cls) -> list:
    """Empty fields of ``cls`` on u: one from a stack with no rows, one
    restricted to no points from a field on ORDER."""
    row = ROWS[cls]
    return [cls.from_stack("u", [], np.zeros((0,) + row)),
            cls.from_stack("u", ORDER, np.ones((len(ORDER),) + row)).restrict(set())]


class TestEmpty:
    @pytest.mark.parametrize("cls", ROWS, ids=lambda cls: cls.KIND)
    def test_an_empty_field_keeps_its_row_shape(self, cls):
        for f in empties(cls):
            assert type(f) is cls and f.region == "u"
            assert len(f) == 0 and f.ordered_points() == [] and dict(f.data) == {}
            assert f.dim == DIM
            assert f.coeffs.shape == (0,) + ROWS[cls] and not f.coeffs.flags.writeable
            if cls is LieValuedOneForm:
                assert rank(f) == 4
            if cls in (MatrixOneForm, MatrixField):
                assert (f.rows, f.cols) == ROWS[cls][1:]

    def test_empty_form_transports_to_an_empty_form(self, kind):
        empty = kind.cls.from_stack("u", [], np.zeros((0, DIM) + kind.tail))
        t = transport_form(empty, two_chart_cover(), "v")
        assert type(t) is kind.cls and t.region == "v" and len(t) == 0

    def test_connection_kernels_accept_empty_fields(self):
        model = gl_model(2)
        for g, w in zip(empties(MatrixField), empties(LieValuedOneForm)):
            for out, region in ((rho_dot_form(model, g, w), "u"),
                                (gauge_form(model, g, w, "v"), "v")):
                assert type(out) is LieValuedOneForm and out.region == region
                assert out.coeffs.shape == (0, DIM, 4)
