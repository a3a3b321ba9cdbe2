"""How a jet field stores its numbers, and how many jet objects it builds.

``ScalarField`` and ``MatrixField`` keep every point in one read-only
float64 stack ``coeffs``: index 0 of a row is the value, ``1:`` the
gradient, shapes (P, 1 + dim) and (P, 1 + dim, rows, cols).  ``data`` is
a read-only mapping, and both are in ``point_order``.  A kernel builds
exactly one ``Jet`` or ``JetMatrix`` per point, through the validating
constructor; restriction, relabelling and gluing reuse what they are
given, ``constant_matrix_field`` holds one object at every point and the
``gl1_diag_powers`` lift holds its own.  A ``JetMatrix`` a stack builds
holds views of its row, read-only, not copies; one built from an array
its caller can still write through holds a copy.
"""

import numpy as np
import pytest

from helpers import stacked
from sheafgauge import (
    DimensionMismatchError,
    FieldMismatchError,
    Jet,
    JetMatrix,
    MatrixField,
    NonFiniteError,
    OneForm,
    ScalarField,
    constant_matrix_field,
    gl1_diag_powers,
    glue,
    mat_inv,
    mat_mul,
    mat_scale,
    point_order,
)
from sheafgauge.catalog import eval_matrix
from sheafgauge.jets import jet_stack

POINTS = [11, 2, 0, 10, 1]          # an order that is not point_order
DIM = 2
BAD = [float("nan"), float("inf"), float("-inf")]


def matrix_field(points=POINTS, seed=0, region="u", shape=(2, 2)):
    rng = np.random.default_rng(seed)
    return stacked(MatrixField, region, {
        p: JetMatrix(np.eye(*shape) * 2.0 + rng.uniform(-0.5, 0.5, shape),
                     rng.uniform(-1.0, 1.0, (DIM,) + shape)) for p in points})


def scalar_field(points=POINTS, seed=0, region="u"):
    rng = np.random.default_rng(seed)
    return stacked(ScalarField, region, {p: Jet(rng.uniform(1.0, 2.0), rng.uniform(-1, 1, DIM))
                                         for p in points})


def row_of(entry) -> np.ndarray:
    if isinstance(entry, Jet):
        return np.array((entry.value,) + entry.grad_tuple)
    return np.concatenate((entry.value[None], entry.grad))


FIELDS = {
    "scalar": scalar_field,
    "matrix": matrix_field,
    "product": lambda: mat_mul(matrix_field(), matrix_field(seed=1)),
    "inverse": lambda: mat_inv(matrix_field()),
}


@pytest.fixture(params=sorted(FIELDS))
def field(request):
    return FIELDS[request.param]()


class TestStack:
    def test_data_refuses_assignment_insertion_and_del(self, field):
        entry = field.data[POINTS[0]]
        with pytest.raises(TypeError):
            field.data[POINTS[0]] = field.data[POINTS[1]]
        with pytest.raises(TypeError):
            field.data["x"] = "not a jet"
        with pytest.raises(TypeError):
            del field.data[POINTS[0]]
        assert field.data[POINTS[0]] is entry and len(field) == len(POINTS)

    def test_coeffs_is_read_only_float64(self, field):
        assert field.coeffs.dtype == np.float64
        assert not field.coeffs.flags.writeable
        with pytest.raises(ValueError):
            field.coeffs[0] = 0.0

    def test_each_entry_equals_its_stack_row_bit_for_bit(self, field):
        for p, row in zip(field.data, field.coeffs):
            assert row_of(field.data[p]).tobytes() == row.tobytes()

    def test_rows_follow_the_mapping_order(self, field):
        # every kind keeps its rows in point_order, not the mapping's order
        assert list(field.data) == field.ordered_points() == [0, 1, 10, 11, 2]

    def test_layout(self):
        assert scalar_field().coeffs.shape == (len(POINTS), 1 + DIM)
        assert matrix_field(shape=(2, 3)).coeffs.shape == (len(POINTS), 1 + DIM, 2, 3)
        assert scalar_field().dim == matrix_field().dim == DIM

    def test_restrict_keeps_the_order_and_the_objects(self, field):
        r = field.restrict({0, 11, 1})
        assert list(r.data) == [0, 1, 11]
        assert all(r.data[p] is field.data[p] for p in r.data)
        assert np.array_equal(r.coeffs, field.coeffs[[0, 1, 3]])
        assert not r.coeffs.flags.writeable


class TestStackedConstructor:
    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("cls,field,message", [
        (MatrixField, matrix_field, "JetMatrix components must be finite"),
        (ScalarField, scalar_field, "jet components must be finite"),
    ])
    def test_non_finite_anywhere_gives_the_old_message(self, cls, field, message, bad):
        stack = field().coeffs
        for index in np.ndindex(stack.shape):
            broken = stack.copy()
            broken[index] = bad
            with pytest.raises(NonFiniteError, match=f"^{message}$"):
                cls.from_stack("u", point_order(POINTS), broken)

    def test_stack_built_equals_mapping_built(self, field):
        again = type(field).from_stack(field.region, list(field.data), field.coeffs)
        assert list(again.data) == list(field.data)
        assert again.coeffs.tobytes() == field.coeffs.tobytes()

    def test_points_must_be_distinct(self):
        with pytest.raises(FieldMismatchError, match="distinct"):
            MatrixField.from_stack("u", [0, 0], matrix_field([0, 1]).coeffs)
        for f in (matrix_field(), scalar_field()):
            with pytest.raises(FieldMismatchError, match="distinct and in point_order"):
                type(f).from_stack("u", POINTS, f.coeffs)

    @pytest.mark.parametrize("keys", [(1, "1"), ("1", 1)])
    def test_points_with_one_string_form_are_refused(self, keys):
        # 1 and "1" tie in point_order, so no row order of theirs is one
        # that from_stack would take back from the field
        m, s = matrix_field([0, 1]), scalar_field([0, 1])
        pieces = {lab: stacked(ScalarField, lab, {p: s.data[0]}) for lab, p in zip("ab", keys)}
        for build in (lambda: MatrixField.from_stack("u", keys, m.coeffs),
                      lambda: ScalarField.from_stack("u", keys, s.coeffs),
                      lambda: OneForm.from_stack("u", keys, [[1.0, 2.0]] * 2),
                      lambda: constant_matrix_field("u", keys, np.eye(2), DIM),
                      lambda: glue(pieces)):
            with pytest.raises(FieldMismatchError, match="distinct and in point_order"):
                build()


def assert_views_of_rows(field, stack):
    """Each entry of ``field`` holds read-only views of its row of ``stack``."""
    for m, row in zip(field.data.values(), stack):
        assert np.shares_memory(m.value, row[0]) and np.shares_memory(m.grad, row[1:])
        assert not (m.value.flags.writeable or m.grad.flags.writeable)


class TestSharedRows:
    def test_from_stack_entries_view_its_stack(self):
        f = MatrixField.from_stack("u", point_order(POINTS), matrix_field().coeffs)
        assert_views_of_rows(f, f.coeffs)

    def test_kernel_entries_view_their_stack(self):
        a = matrix_field()
        for f in (MatrixField._on_points_of(a, 2.0 * a.coeffs), mat_mul(a, a),
                  mat_scale(a, scalar_field()), mat_inv(a)):
            assert_views_of_rows(f, f.coeffs)

    def test_restrict_and_relabel_keep_views_of_the_source_stack(self):
        f = mat_mul(matrix_field(), matrix_field(seed=1))
        r = f.restrict({0, 11, 1})
        # the kept objects view the source's rows of their points
        assert_views_of_rows(r, [f.coeffs[i] for i in (0, 1, 3)])
        moved = f.relabel("v")
        assert moved.coeffs is f.coeffs
        assert_views_of_rows(moved, moved.coeffs)

    def test_a_writable_source_is_copied(self):
        value, grad = np.eye(2), np.ones((DIM, 2, 2))
        stack = jet_stack(value[None], grad[None])
        view = stack.view()
        view.setflags(write=False)       # read-only, but stack can still write to it
        for m, sources in ((JetMatrix(value, grad), (value, grad)),
                           (JetMatrix(view[0, 0], view[0, 1:]), (stack,))):
            for a in sources:
                assert not np.shares_memory(m.value, a) and not np.shares_memory(m.grad, a)
                a[...] = 7.0
            assert m.value.tolist() == np.eye(2).tolist()
            assert m.grad.tolist() == np.ones((DIM, 2, 2)).tolist()
            assert not (m.value.flags.writeable or m.grad.flags.writeable)

    def test_a_strided_view_is_copied_contiguous(self):
        stack = jet_stack(np.eye(3)[None], np.ones((1, DIM, 3, 3)))
        stack.setflags(write=False)
        m = JetMatrix(stack[0, 0, ::2, ::2], stack[0, 1:, ::2, ::2])
        assert m.value.flags.c_contiguous and m.grad.flags.c_contiguous
        assert not np.shares_memory(m.value, stack)

    @pytest.mark.parametrize("bad", BAD)
    def test_non_finite_in_a_read_only_view_gives_the_old_message(self, bad):
        for index in np.ndindex(1 + DIM, 2, 2):
            stack = np.ones((1, 1 + DIM, 2, 2))
            stack[(0,) + index] = bad
            stack.setflags(write=False)
            with pytest.raises(NonFiniteError, match="^JetMatrix components must be finite$"):
                JetMatrix(stack[0, 0], stack[0, 1:])


def empty_matrix_field(dim):
    return MatrixField.from_stack("u", [], np.zeros((0, 1 + dim, 2, 2)))


class TestEmpty:
    def test_empty_fields_keep_their_shape(self):
        for f, dim in ((MatrixField.from_stack("u", [], np.zeros((0, 1 + DIM, 2, 3))), DIM),
                       (matrix_field(shape=(2, 3)).restrict(()), DIM),
                       (eval_matrix([["t", "1", "0"], ["0", "t", "1"]], "u", {}), 1)):
            assert (len(f), f.rows, f.cols, f.dim) == (0, 2, 3, dim)
            assert f.coeffs.shape[0] == 0 and not f.coeffs.flags.writeable
        s = ScalarField.from_stack("u", [], np.zeros((0, 1 + DIM)))
        assert (len(s), s.dim, s.coeffs.shape[0]) == (0, DIM, 0)

    def test_mat_mul_refuses_empty_fields_of_other_dims(self):
        assert mat_mul(empty_matrix_field(DIM), empty_matrix_field(DIM)).dim == DIM
        with pytest.raises(DimensionMismatchError, match="JetMatrix product shape mismatch"):
            mat_mul(empty_matrix_field(DIM), empty_matrix_field(1))

    def test_mat_scale_refuses_empty_fields_of_other_dims(self):
        a = empty_matrix_field(DIM)
        assert mat_scale(a, ScalarField.from_stack("u", [], np.zeros((0, 1 + DIM)))).dim == DIM
        with pytest.raises(DimensionMismatchError, match="scalar jet dim mismatch"):
            mat_scale(a, ScalarField.from_stack("u", [], np.zeros((0, 2))))


# -- construction counts ------------------------------------------------------

@pytest.fixture
def built(monkeypatch):
    """Counts of ``Jet`` and ``JetMatrix`` constructor calls."""
    counts = {Jet: 0, JetMatrix: 0}
    for cls in counts:
        init = cls.__init__

        def counting(self, *args, _cls=cls, _init=init, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


class TestConstructionCounts:
    def test_kernels_build_one_object_per_point(self, built):
        a, b = matrix_field(), matrix_field(seed=1)
        s = scalar_field()
        for op in (lambda: mat_mul(a, b), lambda: mat_inv(a),
                   lambda: mat_scale(a, s), lambda: mat_scale(a, 2.0)):
            built[Jet] = built[JetMatrix] = 0
            op()
            assert (built[Jet], built[JetMatrix]) == (0, len(POINTS))

    def test_eval_matrix_builds_one_matrix_per_point(self, built):
        eval_matrix([["t", "1"], ["0", "t"]], "u", {p: np.array([0.1 * p]) for p in POINTS})
        assert built[JetMatrix] == len(POINTS)

    def test_restrict_relabel_and_glue_build_none(self, built):
        f, s = matrix_field(), scalar_field()
        built[Jet] = built[JetMatrix] = 0
        r = f.restrict({0, 1})
        moved = f.relabel("v")
        g = glue({"a": f.restrict({0, 1, 2}).relabel("a"),
                  "b": f.restrict({1, 2, 10}).relabel("b")})
        s.restrict({0}).relabel("v")
        assert (built[Jet], built[JetMatrix]) == (0, 0)
        for kept in (r, moved, g):
            assert all(kept.data[p] is f.data[p] for p in kept.data)

    def test_identity_field_builds_one_matrix(self, built):
        f = constant_matrix_field("u", POINTS, np.eye(2), DIM)
        assert built[JetMatrix] == 1
        assert len(f) == len(POINTS) and len({id(m) for m in f.data.values()}) == 1

    def test_the_lift_holds_its_own_matrices(self, built):
        g = stacked(MatrixField, "u", {p: JetMatrix([[1.0 + p]], [[[0.5]]]) for p in POINTS})
        built[Jet] = built[JetMatrix] = 0
        out = gl1_diag_powers(1, 2).phi(g)
        assert built[JetMatrix] == len(POINTS)    # one per point, none built from the stack
        for m, row in zip(out.data.values(), out.coeffs):
            assert not np.shares_memory(m.value, out.coeffs)
            assert row_of(m).tobytes() == row.tobytes()
