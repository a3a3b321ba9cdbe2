"""How a form field stores its coefficients.

``OneForm``, ``MatrixOneForm`` and ``LieValuedOneForm`` keep the
coefficients of every point in one read-only float64 stack ``coeffs`` of
shape (P, dim, *tail), rows in ``point_order``.  The mapping constructor
and ``from_stack`` check the stack once, with each kind's messages;
restriction, relabelling, chart transport and gluing keep the rows in
``point_order``.
"""

import numpy as np
import pytest

from sheafgauge import (
    DimensionMismatchError,
    FieldMismatchError,
    LieValuedOneForm,
    MatrixField,
    MatrixOneForm,
    NonFiniteError,
    OneForm,
    PrincipalConnection,
    PrincipalSectionLocal,
    SampledCover,
    evaluate_connection,
    gl_model,
    glue,
    point_order,
    rho_dot_form,
    transport_form,
)
from conftest import trivial_principal

POINTS = [11, 2, 0, 10, 1]
ORDER = [0, 1, 10, 11, 2]           # sorted by string form
DIM = 2
BAD = [float("nan"), float("inf"), float("-inf")]


class Kind:
    """One form kind: its constructors, row tail and message name."""

    def __init__(self, cls, tail, build):
        self.cls, self.tail, self.build = cls, tail, build
        self.name = cls.KIND

    def rows(self, points, seed=0) -> dict:
        rng = np.random.default_rng(seed)
        return {p: rng.uniform(-2, 2, (DIM,) + self.tail) for p in points}

    def stack(self, points=ORDER, seed=0) -> np.ndarray:
        rows = self.rows(points, seed)
        return np.array([rows[p] for p in points]).reshape((len(points), DIM) + self.tail)


KINDS = [
    Kind(OneForm, (), lambda region, data: OneForm(region, data)),
    Kind(MatrixOneForm, (2, 3), lambda region, data: MatrixOneForm(region, 2, 3, data)),
    Kind(LieValuedOneForm, (3,), lambda region, data: LieValuedOneForm(region, data)),
]


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

    def test_stack_built_equals_mapping_built_bit_for_bit(self, kind):
        rows = kind.rows(POINTS)
        a = kind.build("u", rows)
        b = kind.cls.from_stack("u", ORDER, np.array([rows[p] for p in ORDER]))
        assert type(b) is type(a) and b.region == a.region
        assert b.ordered_points() == a.ordered_points()
        assert b.coeffs.tobytes() == a.coeffs.tobytes()
        assert (b.dim, len(b)) == (a.dim, len(a)) == (DIM, len(POINTS))

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

    def test_from_stack_rejects_a_row_count_mismatch(self, kind):
        with pytest.raises(FieldMismatchError, match="4 points for 5"):
            kind.cls.from_stack("u", ORDER[:4], kind.stack())

    def test_from_stack_checks_the_row_shape(self, kind):
        error = FieldMismatchError if kind.cls is MatrixOneForm else DimensionMismatchError
        for bad in (kind.stack()[..., None], kind.stack()[:, 0]):
            with pytest.raises(error):
                kind.cls.from_stack("u", ORDER, bad)


class TestMappingShapes:
    @pytest.mark.parametrize("build,error,message", [
        (lambda: OneForm("u", {0: [1.0, 2.0], 1: [1.0]}),
         DimensionMismatchError, "mixed coefficient lengths in one-form"),
        (lambda: OneForm("u", {0: [[1.0]]}),
         DimensionMismatchError, "one-form coefficients must be vectors"),
        (lambda: LieValuedOneForm("u", {0: np.zeros((1, 4)), 1: np.zeros((1, 3))}),
         DimensionMismatchError, "mixed shapes in lie-valued one-form"),
        (lambda: LieValuedOneForm("u", {0: np.zeros(4)}),
         DimensionMismatchError, r"lie-valued one-form entries must be \(dim, m\) arrays"),
        (lambda: MatrixOneForm("u", 2, 3, {0: np.zeros((1, 2, 3)), 1: np.zeros((1, 3, 3))}),
         FieldMismatchError, r"entry at 1 has shape \(1, 3, 3\), expected \(dim, 2, 3\)"),
        (lambda: MatrixOneForm("u", 2, 3, {0: np.zeros((1, 2, 3)), 1: np.zeros((2, 2, 3))}),
         DimensionMismatchError, "mixed chart dimensions in matrix one-form"),
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


class TestEmpty:
    def test_empty_form_has_no_dim_or_rank(self, kind):
        for f in (kind.build("u", {}),
                  kind.cls.from_stack("u", [], np.zeros((0, DIM) + kind.tail)),
                  kind.build("u", kind.rows(POINTS)).restrict(set())):
            assert len(f) == 0 and f.ordered_points() == [] and dict(f.data) == {}
            assert f.dim is None
            assert f.coeffs.shape[0] == 0 and not f.coeffs.flags.writeable
            if kind.cls is LieValuedOneForm:
                assert f.rank is None
            if kind.cls is MatrixOneForm:
                assert (f.rows, f.cols) == (2, 3)

    def test_empty_form_transports_to_an_empty_form(self, kind):
        t = transport_form(kind.build("u", {}), two_chart_cover(), "v")
        assert type(t) is kind.cls and t.region == "v" and len(t) == 0

    def test_connection_kernels_accept_an_empty_form_of_unknown_rank(self, cover12):
        model = gl_model(2)
        w = LieValuedOneForm("alpha", {})
        out = rho_dot_form(model, MatrixField("alpha", 2, 2, {}), w)
        assert type(out) is LieValuedOneForm and len(out) == 0 and out.rank is None
        P = trivial_principal(cover12, model)
        s = PrincipalSectionLocal("alpha", MatrixField("alpha", 2, 2, {}))
        value = evaluate_connection(P, PrincipalConnection({"alpha": w}), s)
        assert type(value) is LieValuedOneForm and len(value) == 0
