"""Field operations batched over sample points against one-point references.

Each batched operation must give, bit for bit, what its one-point
formula gives at every point: ``JetMatrix.matmul`` and ``JetMatrix.inv``
for products and inverses, and the one-point ``mc``/``rho`` formulas
written out below.  Failures must name the same point, with the same
exception, as a loop over the points in the operation's order would.
"""

import numpy as np
import pytest

from helpers import stacked
from sheafgauge import (
    DimensionMismatchError,
    FieldMismatchError,
    Jet,
    JetMatrix,
    LieValuedOneForm,
    MatrixField,
    MatrixOneForm,
    NonFiniteError,
    OneForm,
    SampledCover,
    ScalarField,
    SingularMatrixError,
    SpanError,
    field_residual,
    gl_model,
    group_mul,
    mat_inv,
    mat_mul,
    mat_scale,
    mc,
    rho_matrix,
    so2_model,
    transport_field,
    transport_form,
)
from sheafgauge.jets import diff_rows, max_diff, residuals

SHAPES = [(k, dim) for k in (1, 2, 3, 4) for dim in (1, 2, 3)]
N_POINTS = 7


def _rng(k, dim, salt=0):
    return np.random.default_rng(1000 * k + 10 * dim + salt)


def random_field(rng, k, dim, cols=None, points=range(N_POINTS), region="a"):
    cols = k if cols is None else cols
    data = {p: JetMatrix(np.eye(k, cols) * 2.0 + rng.uniform(-0.5, 0.5, (k, cols)),
                         rng.uniform(-1.0, 1.0, (dim, k, cols)))
            for p in points}
    return stacked(MatrixField, region, data)


def empty_field(k, region="a"):
    return MatrixField.from_stack(region, [], np.zeros((0, 2, k, k)))


def assert_same_matrices(field, expected: dict):
    assert list(field.data) == list(expected)
    for p, m in expected.items():
        assert np.array_equal(field.data[p].value, m.value)
        assert np.array_equal(field.data[p].grad, m.grad)


# -- one-point references ---------------------------------------------------

def mc_point(model, jm):
    vi = np.linalg.inv(jm.value)
    coeff, _ = model.expand_stack(np.einsum("ij,kjl->kil", vi, jm.grad))
    return coeff


def rho_point(model, v):
    images = np.einsum("ij,mjk,kl->mil", v, model.lie_basis, np.linalg.inv(v))
    coeff, _ = model.expand_stack(images)
    return coeff.T


def two_chart_cover(dim, rng, points=range(N_POINTS)):
    """Charts a and b on the same points, with random invertible Jacobians."""
    coords = {(r, p): rng.uniform(-1.0, 1.0, dim) for r in "ab" for p in points}
    jac = {("a", "b", p): np.eye(dim) * 2.0 + rng.uniform(-0.5, 0.5, (dim, dim))
           for p in points}
    return SampledCover(points, {"a": points, "b": points}, coords, jac)


# -- agreement with the references ------------------------------------------

@pytest.mark.parametrize("k,dim", SHAPES)
def test_mat_mul_matches_jetmatrix_matmul(k, dim):
    rng = _rng(k, dim)
    a, b = random_field(rng, k, dim), random_field(rng, k, dim, cols=2)
    want = {p: a.data[p].matmul(b.data[p]) for p in a.data}
    assert_same_matrices(mat_mul(a, b), want)


@pytest.mark.parametrize("k,dim", SHAPES)
def test_mat_inv_matches_jetmatrix_inv(k, dim):
    a = random_field(_rng(k, dim), k, dim, points=[5, 0, 3, 1, 6, 2, 4])
    want = {p: a.data[p].inv(point=p) for p in a.data}
    assert_same_matrices(mat_inv(a), want)


@pytest.mark.parametrize("k,dim", SHAPES)
def test_mat_scale_matches_jetmatrix(k, dim):
    rng = _rng(k, dim)
    a = random_field(rng, k, dim, cols=2)
    s = stacked(ScalarField, "a", {p: Jet(rng.uniform(-2, 2), rng.uniform(-2, 2, dim))
                                   for p in a.data})
    assert_same_matrices(mat_scale(a, s),
                         {p: m.scale(s.data[p]) for p, m in a.data.items()})
    assert_same_matrices(mat_scale(a, -1.5),
                         {p: m.scale(-1.5) for p, m in a.data.items()})


@pytest.mark.parametrize("k,dim", SHAPES)
def test_mc_and_rho_match_one_point_formulas(k, dim):
    model = gl_model(k)
    g = random_field(_rng(k, dim), k, dim, points=[9, 10, 0, 3, 1, 2, 4])
    form = mc(model, g)
    pts, rho = rho_matrix(model, g)
    assert list(form.data) == pts == g.ordered_points()
    for k, p in enumerate(pts):
        assert np.array_equal(form.data[p], mc_point(model, g.data[p]))
        assert np.array_equal(rho[k], rho_point(model, g.data[p].value))


@pytest.mark.parametrize("k,dim", SHAPES)
def test_transports_match_one_point_pullback(k, dim):
    rng = _rng(k, dim)
    cover = two_chart_cover(dim, rng)
    f = random_field(rng, k, dim)
    jac = {p: cover.jacobian("a", "b", p) for p in f.data}
    moved = transport_field(f, cover, "b")
    assert moved.region == "b"
    assert_same_matrices(moved, {
        p: JetMatrix(m.value, np.einsum("il,i...->l...", jac[p], m.grad))
        for p, m in sorted(f.data.items())})

    s = stacked(ScalarField, "a", {p: Jet(1.0 + p, rng.uniform(-1, 1, dim)) for p in f.data})
    moved_s = transport_field(s, cover, "b")
    for p, j in s.data.items():
        assert moved_s.data[p].value == j.value
        assert np.array_equal(moved_s.data[p].gradient,
                              np.einsum("il,i...->l...", jac[p], j.gradient))

    w = stacked(MatrixOneForm, "a", {p: m.grad for p, m in f.data.items()})
    moved_w = transport_form(w, cover, "b")
    for p in w.data:
        assert np.array_equal(moved_w.data[p], np.einsum("il,i...->l...", jac[p], w.data[p]))


@pytest.mark.parametrize("k,dim", SHAPES)
def test_residual_rows_match_one_point_diffs(k, dim):
    rng = _rng(k, dim)
    a, b = random_field(rng, k, dim), random_field(rng, k, dim)
    pts = a.ordered_points()
    assert diff_rows(a, b) == [(p, a.data[p].max_abs_diff(b.data[p])) for p in pts]
    res, at = field_residual(a, b)
    want = max(pts, key=lambda p: (a.data[p].max_abs_diff(b.data[p]), -pts.index(p)))
    assert (res, at) == (a.data[want].max_abs_diff(b.data[want]), want)

    la = stacked(LieValuedOneForm, "a", {p: m.grad.reshape(dim, -1) for p, m in a.data.items()})
    lb = stacked(LieValuedOneForm, "a", {p: m.grad.reshape(dim, -1) for p, m in b.data.items()})
    want = [(p, max_diff(la.data[p], lb.data[p])) for p in pts]
    assert diff_rows(la, lb) == want
    assert residuals(pts, np.array([la.data[p] for p in pts]),
                     np.array([lb.data[p] for p in pts])) == want

    sa, sb = (stacked(ScalarField, "a", {p: Jet(m.value[0, 0], m.grad[:, 0, 0])
                                         for p, m in f.data.items()}) for f in (a, b))
    res, _ = field_residual(sa, sb)
    assert res == max(sa.data[p].max_abs_diff(sb.data[p]) for p in pts)


def test_rows_are_plain_floats():
    a = random_field(_rng(2, 1), 2, 1)
    b = random_field(_rng(2, 1, salt=1), 2, 1)
    rows = diff_rows(a, b)
    assert all(type(r) is float for _, r in rows)
    res, _ = field_residual(stacked(OneForm, "a", {0: [1.0, 2.0]}),
                            stacked(OneForm, "a", {0: [1.0, 3.5]}))
    assert type(res) is float and res == 1.5


# -- empty fields ------------------------------------------------------------

@pytest.mark.parametrize("k", (1, 2, 3))
def test_empty_fields(k):
    model = gl_model(k)
    e = empty_field(k)
    assert len(mat_mul(e, e)) == 0
    assert len(mat_inv(e)) == 0
    assert len(group_mul(e, e)) == 0
    assert len(mc(model, e)) == 0
    pts, rho = rho_matrix(model, e)
    assert pts == [] and len(rho) == 0
    assert field_residual(e, e) == (0.0, None)
    assert diff_rows(e, e) == []
    assert diff_rows(mc(model, e), mc(model, e)) == []
    cover = two_chart_cover(2, _rng(k, 2))
    assert len(transport_field(e, cover, "b")) == 0
    w = MatrixOneForm.from_stack("a", [], np.zeros((0, 1, k, k)))
    assert len(transport_form(w, cover, "b")) == 0


def test_non_square_inverse_still_rejected():
    a = random_field(_rng(2, 1), 2, 1, cols=3)
    with pytest.raises(DimensionMismatchError):
        mat_inv(a)


# -- which point fails --------------------------------------------------------

def _with(field, changes):
    data = dict(field.data)
    data.update(changes)
    return stacked(MatrixField, field.region, data)


def test_mat_inv_names_first_singular_point_in_point_order():
    base = random_field(_rng(2, 1), 2, 1, points=[5, 3, 0, 4, 1])
    zero = JetMatrix(np.zeros((2, 2)), np.zeros((1, 2, 2)))
    bad = _with(base, {3: zero, 1: zero})
    with pytest.raises(SingularMatrixError) as exc:
        mat_inv(bad)
    assert exc.value.point == 1
    assert str(exc.value) == "determinant 0.000e+00 below floor 1.0e-09 at point 1"


def test_mat_inv_reports_non_finite_inverse_before_later_singular_point():
    small = JetMatrix([[1e-5]], [[[1e300]]])          # det passes, gradient overflows
    zero = JetMatrix([[0.0]], [[[0.0]]])
    # the earlier point in point_order decides, whatever the mapping order
    with np.errstate(over="ignore"):
        for data in ({0: small, 1: zero}, {1: zero, 0: small}):
            with pytest.raises(NonFiniteError, match="finite"):
                mat_inv(stacked(MatrixField, "a", data))
        for data in ({0: zero, 1: small}, {1: small, 0: zero}):
            with pytest.raises(SingularMatrixError):
                mat_inv(stacked(MatrixField, "a", data))


def test_mc_names_first_point_in_sorted_order():
    model = gl_model(2)
    g = random_field(_rng(2, 1), 2, 1, points=[9, 10, 2])
    zero = JetMatrix(np.zeros((2, 2)), np.zeros((1, 2, 2)))
    with pytest.raises(SingularMatrixError, match="not invertible at 10") as exc:
        mc(model, _with(g, {9: zero, 10: zero}))
    assert exc.value.point == 10


def test_mc_span_failure_before_det_failure_wins():
    model = so2_model()
    off = JetMatrix(np.eye(2), np.diag([1.0, 0.0])[None])   # g^-1 dg leaves so(2)
    zero = JetMatrix(np.zeros((2, 2)), np.zeros((1, 2, 2)))
    g = stacked(MatrixField, "a", {1: zero, 0: off})
    with pytest.raises(SpanError, match="logarithmic differential") as exc:
        mc(model, g)
    assert exc.value.point == 0
    with pytest.raises(SingularMatrixError, match="not invertible") as exc:
        mc(model, stacked(MatrixField, "a", {0: zero, 1: off}))
    assert exc.value.point == 0


def test_rho_matrix_span_failure_before_singular_point_wins():
    model = so2_model()
    stretch = JetMatrix(np.diag([2.0, 1.0]), np.zeros((1, 2, 2)))
    zero = JetMatrix(np.zeros((2, 2)), np.zeros((1, 2, 2)))
    with pytest.raises(SpanError) as exc:
        rho_matrix(model, stacked(MatrixField, "a", {1: zero, 0: stretch}))
    assert exc.value.point == 0
    with pytest.raises(SingularMatrixError, match="not invertible at 0") as exc:
        rho_matrix(model, stacked(MatrixField, "a", {0: zero, 1: stretch}))
    assert exc.value.point == 0


def test_group_mul_names_first_point_in_sorted_order():
    g = random_field(_rng(2, 1), 2, 1, points=[7, 11, 3])
    zero = JetMatrix(np.zeros((2, 2)), np.zeros((1, 2, 2)))
    h = _with(g, {7: zero, 11: zero})
    with pytest.raises(FieldMismatchError, match="at 11 "):
        group_mul(g, h)
