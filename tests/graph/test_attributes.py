"""Unit tests for attribute specs, schemas, and columnar tables."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.attributes import AttributeSchema, AttributeSpec, AttributeTable, Ragged
from repro.kernels import contains, count
from tests.conftest import ragged, ragged_rows


class TestAttributeSpec:
    def test_dtype_aliases(self):
        assert AttributeSpec("a", "int").dtype == np.dtype(np.int64)
        assert AttributeSpec("a", "long").dtype == np.dtype(np.int64)
        assert AttributeSpec("a", "float").dtype == np.dtype(np.float64)
        assert AttributeSpec("a", "double").dtype == np.dtype(np.float64)
        assert AttributeSpec("a", "bool").dtype == np.dtype(np.bool_)
        spec = AttributeSpec("a", "ragged")
        assert spec.ragged and spec.dtype == np.dtype(np.int64)
        assert not AttributeSpec("a", "int").ragged

    def test_numpy_dtype_passthrough(self):
        assert AttributeSpec("a", np.int32).dtype == np.dtype(np.int32)

    def test_default_dtype_is_float(self):
        assert AttributeSpec("a").dtype == np.dtype(np.float64)

    def test_id_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            AttributeSpec("id")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            AttributeSpec("")

    def test_non_string_name_rejected(self):
        with pytest.raises(ValueError):
            AttributeSpec(42)

    @pytest.mark.parametrize(
        "dtype", ["object", "str", object, str, "U5", np.bytes_],
        ids=["object", "str", "object-type", "str-type", "unicode", "bytes"],
    )
    def test_python_objects_are_refused(self, dtype):
        with pytest.raises(ValueError, match='"ragged"'):
            AttributeSpec("a", dtype)

    def test_a_ragged_attribute_has_no_default(self):
        with pytest.raises(ValueError, match="start empty"):
            AttributeSpec("a", "ragged", default=1)

    def test_ragged_spec_pickles_as_ragged(self):
        import pickle

        spec = AttributeSpec("a", "ragged")
        assert pickle.loads(pickle.dumps(spec)) == spec != AttributeSpec("a", "int")

    def test_fill_value_defaults(self):
        assert AttributeSpec("a", "float").fill_value() == 0.0
        assert AttributeSpec("a", "int").fill_value() == 0

    def test_fill_value_custom_default(self):
        assert AttributeSpec("a", "float", default=1.5).fill_value() == 1.5

    def test_allocate(self):
        col = AttributeSpec("a", "float", default=2.0).allocate(4)
        assert col.shape == (4,) and np.all(col == 2.0)

    def test_allocate_ragged(self):
        col = AttributeSpec("a", "ragged").allocate(3)
        assert isinstance(col, Ragged) and ragged_rows(col) == [[], [], []]
        assert col.n == 3 and col.owners.size == col.values.size == 0
        assert col.owners.dtype == col.values.dtype == np.dtype(np.int64)


@st.composite
def owner_value_pairs(draw):
    """``(n, owners, values)``: random pairs, owners in ``[0, n)`` and unsorted."""
    n = draw(st.integers(0, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, 4)), max_size=3 * n))
    owners, values = (np.asarray([p[i] for p in pairs], dtype=np.int64) for i in (0, 1))
    return n, owners, values


def python_rows(n, owners, values) -> list[list[int]]:
    """Each (owner, value) pair appended to its owner's row, in order."""
    rows = [[] for _ in range(n)]
    for owner, value in zip(owners.tolist(), values.tolist()):
        rows[owner].append(value)
    return rows


class TestRaggedPairs:
    """A ragged column is its (owner, value) pairs: every operation equals a
    per-row Python walk."""

    @settings(max_examples=100, deadline=None)
    @given(owner_value_pairs(), st.randoms(use_true_random=False), st.integers(0, 4))
    def test_operations_equal_a_python_walk(self, column, rnd, tag):
        n, owners, values = column
        want = python_rows(n, owners, values)
        col = Ragged.group(owners, values, n)
        assert (col.owners[1:] >= col.owners[:-1]).all() and col.n == n
        assert [col.row(i).tolist() for i in range(n)] == want
        permutation = rnd.sample(range(n), n)
        subset = sorted(rnd.sample(range(n), rnd.randint(0, n)))
        repeats = [rnd.randrange(n) for _ in range(n)] if n else []
        for rows in (permutation, subset, [], list(range(n)), repeats):
            got = col.take(np.asarray(rows, dtype=np.int64))
            assert got.n == len(rows) and ragged_rows(got) == [want[r] for r in rows]
        assert contains(col, tag).tolist() == [tag in row for row in want]
        assert count(col, tag) == sum(row.count(tag) for row in want)
        assert col.equals(ragged(want)) and col.copy().equals(col)
        if values.size:
            other = values.copy()
            other[0] += 1
            assert not col.equals(Ragged.group(owners, other, n))
        assert not col.equals(Ragged.group(owners, values, n + 1))


class TestAttributeSchema:
    def test_add_and_lookup(self):
        schema = AttributeSchema([("a", "float"), "b"])
        assert "a" in schema and "b" in schema and "c" not in schema
        assert schema["a"].dtype == np.dtype(np.float64)
        assert schema.names == ["a", "b"]
        assert len(schema) == 2

    def test_duplicate_rejected(self):
        schema = AttributeSchema(["a"])
        with pytest.raises(ValueError, match="duplicate"):
            schema.add("a")

    def test_accepts_spec_tuple_and_string(self):
        schema = AttributeSchema()
        schema.add(AttributeSpec("x", "int"))
        schema.add(("y", "bool"))
        schema.add("z")
        assert schema.names == ["x", "y", "z"]

    def test_equality(self):
        a = AttributeSchema([("x", "int"), ("y", "float")])
        b = AttributeSchema([("x", "int"), ("y", "float")])
        c = AttributeSchema([("y", "float"), ("x", "int")])
        assert a == b
        assert a != c  # order matters

    def test_iteration_order(self):
        schema = AttributeSchema(["b", "a", "c"])
        assert [s.name for s in schema] == ["b", "a", "c"]

    def test_create_table(self):
        table = AttributeSchema(["a"]).create_table(5)
        assert table.n == 5


class TestAttributeTable:
    def make(self, n=4):
        schema = AttributeSchema(
            [("x", "float"), ("k", "int", 7), ("o", "ragged"), ("b", "bool")]
        )
        return AttributeTable(schema, n)

    def test_lazy_columns(self):
        t = self.make()
        assert list(t._columns) == []
        t.column("x")
        assert list(t._columns) == ["x"]

    def test_column_defaults(self):
        t = self.make()
        assert np.all(t.column("k") == 7)
        assert np.all(t.column("x") == 0.0)

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            self.make().column("nope")

    def test_set_column_copies(self):
        t = self.make()
        values = np.arange(4, dtype=np.float64)
        t.set_column("x", values)
        values[0] = 99.0
        assert t.get("x", 0) == 0.0  # caller mutation does not alias

    def test_set_column_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            self.make().set_column("x", np.zeros(3))

    def test_set_column_dtype_coercion(self):
        t = self.make()
        t.set_column("k", [1, 2, 3, 4])
        assert t.column("k").dtype == np.dtype(np.int64)

    def test_get_set_scalar(self):
        t = self.make()
        t.set("x", 2, 3.5)
        assert t.get("x", 2) == 3.5

    def test_take(self):
        t = self.make()
        t.set_column("x", np.array([1.0, 2.0, 3.0, 4.0]))
        out = t.take("x", np.array([3, 0]))
        assert np.array_equal(out, [4.0, 1.0])
        out[0] = -1  # copy, not view
        assert t.get("x", 3) == 4.0

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            AttributeTable(AttributeSchema(["a"]), -1)

    def test_copy_independent(self):
        t = self.make()
        t.set("x", 0, 5.0)
        c = t.copy()
        c.set("x", 0, 6.0)
        assert t.get("x", 0) == 5.0

    def test_equals(self):
        a, b = self.make(), self.make()
        assert a.equals(b)
        a.set("x", 0, 1.0)
        assert not a.equals(b)
        b.set("x", 0, 1.0)
        assert a.equals(b)

    def test_equals_ragged_columns(self):
        a, b = self.make(), self.make()
        a.set_column("o", ragged([None, [1, 2], [], [3]]))
        assert not a.equals(b)
        b.set_column("o", ragged([[], [1, 2], None, [3]]))
        assert a.equals(b)
        b.set_column("o", ragged([[], [1], [2], [3]]))  # same values, other rows
        assert not a.equals(b)

    def test_set_column_checks_a_ragged_column(self):
        t = self.make()
        good = ragged([[1, 2], [], [3], []])
        t.set_column("o", good)
        assert ragged_rows(t.column("o")) == [[1, 2], [], [3], []]
        assert t.column("o").values is not good.values  # copied
        assert t.get("o", 0).tolist() == [1, 2]
        floats = Ragged(4, good.owners, good.values.astype(np.float64))
        with pytest.raises(ValueError, match="integer"):
            t.set_column("o", floats)
        with pytest.raises(ValueError, match="of 4 rows"):
            t.set_column("o", ragged([[1], [2], [3]]))
        # unsorted, outside [0, 4), one owner short of the values
        for owners in ([0, 2, 0], [0, 0, 4], [-1, 0, 2], [0, 0]):
            with pytest.raises(ValueError, match="never decrease, lie in"):
                t.set_column("o", Ragged(4, np.asarray(owners), good.values))
        with pytest.raises(ValueError, match="Ragged"):
            t.set_column("o", [(1, 2), (), (3,), ()])

    def test_equals_different_schema(self):
        a = AttributeTable(AttributeSchema(["x"]), 2)
        b = AttributeTable(AttributeSchema(["y"]), 2)
        assert not a.equals(b)

    def test_approx_nbytes(self):
        t = self.make(10)
        assert t.approx_nbytes() == 0
        t.column("x")
        assert t.approx_nbytes() == 80
        t.column("o")  # ten empty rows store nothing
        assert t.approx_nbytes() == 80
        t.set_column("o", ragged([[1, 2, 3]] + [None] * 9))
        assert t.approx_nbytes() == 80 + 24 + 24

    def test_constructor_columns(self):
        schema = AttributeSchema([("x", "float")])
        t = AttributeTable(schema, 3, columns={"x": np.ones(3)})
        assert np.all(t.column("x") == 1.0)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30))
    def test_roundtrip_column_values(self, values):
        schema = AttributeSchema([("x", "float")])
        t = AttributeTable(schema, len(values))
        t.set_column("x", np.asarray(values))
        assert np.array_equal(t.column("x"), np.asarray(values))


class TestBackedTable:
    """A table with a ``locate`` hook: columns hold stored values, lazily."""

    SCHEMA = AttributeSchema([("x", "float"), ("k", "int", 7), ("o", "ragged")])
    STORED = {"x": [1.5, 2.5], "k": [3, 4]}
    STORED_O = [[5, 6], None, [7], None]

    def make(self, calls=None):
        def locate(name, rows):
            if calls is not None:
                calls.append(name if rows is None else (name, rows.tolist()))
            if name == "o":
                return ragged(self.STORED_O), rows
            column = self.SCHEMA[name].allocate(4)
            column[[0, 2]] = self.STORED[name]
            return column, rows  # ``rows=None``: the whole column, in order

        return AttributeTable(self.SCHEMA, 4, locate=locate)

    def test_locate_hands_out_the_hooks_answer_and_take_composes_it(self):
        calls = []
        t = self.make(calls)
        rows = np.asarray([2, 1, 2])
        values, index = t.locate("k", rows)
        assert values.tolist() == [3, 7, 4, 7] and index is rows
        assert t.take("k", rows).tolist() == [4, 7, 4]
        assert calls == [("k", [2, 1, 2])] * 2 and list(t._columns) == []
        plain = AttributeTable(self.SCHEMA, 4)  # in memory: (column, rows)
        values, index = plain.locate("k", rows)
        assert values is plain.column("k") and index is rows

    def test_gather_runs_once_per_column_on_first_touch(self):
        calls = []
        t = self.make(calls)
        assert list(t._columns) == [] and calls == []
        assert t.column("k").tolist() == [3, 7, 4, 7]  # stored rows over the default
        t.column("k")
        t.get("k", 0)
        assert calls == ["k"]
        assert list(t._columns) == ["k"]
        assert t.approx_nbytes() == 4 * 8  # untouched columns weigh nothing

    def test_take_of_an_untouched_column_asks_the_store_and_builds_nothing(self):
        calls = []
        t = self.make(calls)
        rows = np.asarray([2, 1, 2])
        assert t.take("k", rows).tolist() == [4, 7, 4]
        assert ragged_rows(t.take("o", rows)) == [[7], [], [7]]
        assert calls == [("k", [2, 1, 2]), ("o", [2, 1, 2])]
        assert list(t._columns) == [] and t.approx_nbytes() == 0
        with pytest.raises(KeyError):
            t.take("nope", rows)

    def test_take_reads_a_touched_column_so_writes_show(self):
        calls = []
        t = self.make(calls)
        t.set("x", 1, 9.0)  # materializes x (one whole-column gather)
        assert t.take("x", np.asarray([0, 1])).tolist() == [1.5, 9.0]
        assert calls == ["x"]

    @pytest.mark.parametrize(
        "indices", [2, [[0, 2], [1, 3]], np.asarray([True, False, True, False])]
    )
    def test_take_of_anything_but_a_row_array_goes_through_the_column(self, indices):
        calls = []
        t = self.make(calls)
        got = t.take("k", indices)
        want = np.asarray([3, 7, 4, 7])[np.asarray(indices)]
        assert np.array_equal(got, want)
        assert calls == ["k"]

    def test_set_column_replaces_the_stored_values(self):
        calls = []
        t = self.make(calls)
        t.set_column("x", np.zeros(4))
        assert t.column("x").tolist() == [0.0] * 4 and calls == []

    def test_copy_does_not_turn_untouched_columns_into_defaults(self):
        t = self.make()
        t.column("x")[1] = 9.0
        c = t.copy()
        assert list(c._columns) == ["x"]
        assert c.column("x").tolist() == [1.5, 9.0, 2.5, 0.0]
        assert c.column("k").tolist() == [3, 7, 4, 7]  # not [7, 7, 7, 7]
        c.column("x")[0] = -1.0
        assert t.get("x", 0) == 1.5

    def test_equals_sees_untouched_columns(self):
        plain = AttributeTable(self.SCHEMA, 4)
        assert not self.make().equals(plain)
        assert not plain.equals(self.make())
        for name, values in self.STORED.items():
            plain.column(name)[[0, 2]] = values
        plain.set_column("o", ragged(self.STORED_O))
        assert self.make().equals(plain) and plain.equals(self.make())
        assert self.make().equals(self.make())

    def test_pickle_ships_values_not_the_hook(self):
        import pickle

        t = self.make()
        t.column("x")
        clone = pickle.loads(pickle.dumps(t))
        assert list(clone._columns) == ["x", "k", "o"]
        assert clone.equals(self.make())
        plain = AttributeTable(self.SCHEMA, 4)
        plain.column("x")
        assert list(pickle.loads(pickle.dumps(plain))._columns) == ["x"]
