"""Typed attribute schemas and columnar attribute tables.

The paper (Section II-A) gives every vertex of a graph template the same set of
typed attributes ``{id, alpha_1 .. alpha_m}`` and every edge the set
``{id, beta_1 .. beta_n}``.  Graph *instances* then carry a value for each
attribute.  We store instance values column-wise as numpy arrays (one array per
attribute), following the vectorization idiom of the HPC guides: algorithms
read whole columns (e.g. the ``latency`` column for all edges) instead of
per-object field accesses.

A set- or list-valued attribute (the tweet hashtags of meme tracking) is
``"ragged"``: its column is one :class:`Ragged` value, a row count and two
int64 arrays — each value and the row that owns it — which every layer,
from the generators through the GoFS store to the kernels, carries as is.
Strings and other Python objects are not attribute values.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .._value import Value

__all__ = ["AttributeSpec", "AttributeSchema", "AttributeTable", "Ragged"]


class Ragged(NamedTuple):
    """A ragged column of ``n`` rows: ``owners`` holds one sorted int64 row id
    per value, and row ``i`` is ``values[owners == i]`` in stored order.  An
    empty row stores nothing, so no array is sized by the row count."""

    n: int
    owners: np.ndarray
    values: np.ndarray

    @classmethod
    def group(cls, owners: np.ndarray, values: np.ndarray, n: int) -> "Ragged":
        """``n`` rows, row ``v`` holding the ``values`` owned by ``v`` in their order."""
        owners = np.asarray(owners, dtype=np.int64)
        order = owners.argsort(kind="stable")
        return cls(n, owners[order], np.asarray(values, dtype=np.int64)[order])

    dtype = property(lambda self: self.values.dtype)
    nbytes = property(lambda self: self.owners.nbytes + self.values.nbytes)

    def rows(self, lo: int, hi: int) -> "Ragged":
        """Rows ``lo`` to ``hi - 1`` as a zero-based column: one binary search."""
        a, b = self.owners.searchsorted((lo, hi))
        return Ragged(hi - lo, self.owners[a:b] - lo, self.values[a:b])

    def row(self, i: int) -> np.ndarray:
        return self.rows(i, i + 1).values

    def take(self, rows: np.ndarray) -> "Ragged":
        """The given integer rows, in order, as a new zero-based column."""
        rows = np.asarray(rows, dtype=np.int64)
        at = np.full(self.n, -1, dtype=np.int64)  # row -> one position asking for it
        at[rows] = np.arange(rows.size)
        owners = at[self.owners]
        kept = owners >= 0
        owners, values = owners[kept], self.values[kept]
        if np.count_nonzero(at >= 0) < rows.size:  # a row asked for twice: the others again
            again = (at[rows] != np.arange(rows.size)).nonzero()[0]
            more = self.take(rows[again])
            owners = np.concatenate([owners, again[more.owners]])
            values = np.concatenate([values, more.values])
        return Ragged.group(owners, values, rows.size)

    def copy(self) -> "Ragged":
        return Ragged(self.n, self.owners.copy(), self.values.copy())

    def equals(self, other: "Ragged") -> bool:
        return (
            self.n == other.n
            and np.array_equal(self.owners, other.owners)
            and np.array_equal(self.values, other.values)
        )


def check_ragged(owners: np.ndarray, values: np.ndarray, n: int, what: str = "ragged owners") -> None:
    """``ValueError`` unless ``owners`` never decrease, lie in ``[0, n)`` and
    pair one to one with ``values``: what lets a kernel read every row
    without an ``IndexError``."""
    if not (
        owners.size == values.size
        and (not owners.size or 0 <= owners[0] and owners[-1] < n)
        and (owners[1:] >= owners[:-1]).all()
    ):
        raise ValueError(
            f"{what} must never decrease, lie in [0, {n}) and number {values.size}, one per value"
        )


#: Shorthand names accepted by :class:`AttributeSpec` for common dtypes.
_DTYPE_ALIASES: dict[str, np.dtype] = {
    "int": np.dtype(np.int64),
    "long": np.dtype(np.int64),
    "float": np.dtype(np.float64),
    "double": np.dtype(np.float64),
    "bool": np.dtype(np.bool_),
    "ragged": np.dtype(np.int64),
}


def _resolve_dtype(name: str, dtype: Any) -> np.dtype:
    """Normalize a dtype specification to a concrete numeric :class:`numpy.dtype`."""
    if isinstance(dtype, str) and dtype in _DTYPE_ALIASES:
        return _DTYPE_ALIASES[dtype]
    resolved = np.dtype(dtype)
    if resolved.kind in "OSU":
        raise ValueError(
            f"attribute {name!r}: {dtype!r} values are not stored; a set- or list-valued "
            'attribute is "ragged" (int64 owners and values)'
        )
    return resolved


class AttributeSpec(Value):
    """A single typed attribute in a template schema.

    Parameters
    ----------
    name:
        Attribute name, unique within its schema.  The name ``id`` is
        reserved — identifiers live on the template, not in instance tables.
    dtype:
        Numpy dtype, an alias such as ``"float"`` or ``"int"``, or
        ``"ragged"``: a column of :class:`Ragged` int64 rows, ``dtype`` int64.
    default:
        Fill value used when a new column is allocated.  ``None`` selects a
        dtype-appropriate zero; a ragged column's rows start empty.
    """

    __slots__ = ("name", "dtype", "default", "ragged")

    def __init__(self, name: str, dtype: Any = "float", default: Any = None) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"attribute name must be a non-empty string, got {name!r}")
        if name == "id":
            raise ValueError("'id' is reserved: identifiers are stored on the template")
        self.ragged = isinstance(dtype, str) and dtype == "ragged"
        if self.ragged and default is not None:
            raise ValueError(f"attribute {name!r}: a ragged column's rows start empty")
        self.name, self.dtype, self.default = name, _resolve_dtype(name, dtype), default

    def __reduce__(self):
        return AttributeSpec, (self.name, "ragged" if self.ragged else self.dtype, self.default)

    def fill_value(self) -> Any:
        """The value new cells of a numeric attribute are initialized with."""
        if self.default is not None:
            return self.default
        return np.zeros(1, dtype=self.dtype)[0]

    def allocate(self, n: int) -> np.ndarray | Ragged:
        """Allocate a fresh column of length ``n`` filled with the default."""
        if self.ragged:
            return Ragged(n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        col = np.empty(n, dtype=self.dtype)
        col.fill(self.fill_value())
        return col


class AttributeSchema:
    """An ordered collection of :class:`AttributeSpec`.

    Shared by a graph template and all of its instances; instances allocate
    one :class:`AttributeTable` per schema.
    """

    __slots__ = ("_specs",)

    def __init__(self, specs: Iterable[AttributeSpec | tuple | str] = ()) -> None:
        self._specs: dict[str, AttributeSpec] = {}
        for spec in specs:
            self.add(spec)

    @staticmethod
    def _coerce(spec: AttributeSpec | tuple | str) -> AttributeSpec:
        if isinstance(spec, AttributeSpec):
            return spec
        if isinstance(spec, str):
            return AttributeSpec(spec)
        return AttributeSpec(*spec)

    def add(self, spec: AttributeSpec | tuple | str) -> AttributeSpec:
        """Add an attribute; raises ``ValueError`` on duplicate names."""
        spec = self._coerce(spec)
        if spec.name in self._specs:
            raise ValueError(f"duplicate attribute {spec.name!r}")
        self._specs[spec.name] = spec
        return spec

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __getitem__(self, name: str) -> AttributeSpec:
        return self._specs[name]

    def __iter__(self) -> Iterator[AttributeSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeSchema):
            return NotImplemented
        return list(self._specs.values()) == list(other._specs.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ", ".join(f"{s.name}:{s.dtype}" for s in self)
        return f"AttributeSchema({names})"

    @property
    def names(self) -> list[str]:
        return list(self._specs)

    def create_table(self, n: int) -> "AttributeTable":
        """Allocate an :class:`AttributeTable` with ``n`` rows."""
        return AttributeTable(self, n)


class AttributeTable:
    """Columnar storage of attribute values for ``n`` graph elements.

    Columns are numpy arrays keyed by attribute name.  Rows correspond to the
    template's dense element indices (vertex index or edge index), so a
    subgraph can slice columns with fancy indexing.

    Columns are allocated on first access.  A table built with ``locate`` is
    *backed*: ``locate(name, rows)`` returns ``(values, index)``, the stored
    values at ``rows`` being ``values[index]`` — or ``values`` when ``index is
    None`` (``rows=None``: a fresh whole column) — a GoFS view answers with a
    slice row and the rows' positions in it.  :meth:`locate` and :meth:`take`
    of an untouched column ask that hook and build nothing table-wide;
    :meth:`column` asks it once, after which it is an ordinary column.
    """

    __slots__ = ("schema", "n", "_columns", "_locate")

    def __init__(
        self,
        schema: AttributeSchema,
        n: int,
        columns: Mapping[str, np.ndarray] | None = None,
        *,
        locate: Callable[[str, np.ndarray | None], tuple] | None = None,
    ) -> None:
        if n < 0:
            raise ValueError("row count must be non-negative")
        self.schema = schema
        self.n = int(n)
        self._columns: dict[str, np.ndarray] = {}
        self._locate = locate
        if columns is not None:
            for name, col in columns.items():
                self.set_column(name, col)

    def _materialize(self, name: str) -> np.ndarray:
        spec = self.schema[name]  # KeyError for unknown attributes
        col = self._columns.get(name)
        if col is None:
            col = spec.allocate(self.n) if self._locate is None else self._locate(name, None)[0]
            self._columns[name] = col
        return col

    def _valued_names(self) -> list[str]:
        """Columns that hold (or, for a backed table, will hold) non-default
        values: every schema attribute when backed, else the materialized."""
        return self.schema.names if self._locate is not None else list(self._columns)

    def __getstate__(self) -> tuple:
        # A locate hook closes over its backing store; ship the values instead.
        for name in self._valued_names():
            self._materialize(name)
        return (self.schema, self.n, self._columns)

    def __setstate__(self, state: tuple) -> None:
        self.schema, self.n, self._columns = state
        self._locate = None

    def column(self, name: str) -> np.ndarray:
        """Return the full column for ``name`` (allocated lazily) — all ``n``
        rows; to read a few rows of a backed table use :meth:`take`."""
        return self._materialize(name)

    def set_column(self, name: str, values: np.ndarray | list | Ragged) -> None:
        """Replace the whole column for ``name``; length must equal ``n``.  A
        ragged attribute's column is a :class:`Ragged` of integers."""
        spec = self.schema[name]
        if spec.ragged:
            self._columns[name] = _checked_ragged(name, values, self.n)
            return
        arr = np.asarray(values, dtype=spec.dtype)
        if arr.shape != (self.n,):
            raise ValueError(
                f"column {name!r} has shape {arr.shape}, expected ({self.n},)"
            )
        # Copy so callers cannot alias internal state by accident.
        self._columns[name] = arr.copy()

    def get(self, name: str, index: int) -> Any:
        """Scalar read of attribute ``name`` at element ``index`` (a ragged
        attribute's: the row's values)."""
        col = self.column(name)
        return col.row(index) if isinstance(col, Ragged) else col[index]

    def set(self, name: str, index: int, value: Any) -> None:
        """Scalar write of numeric attribute ``name`` at element ``index``."""
        self.column(name)[index] = value

    def locate(self, name: str, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``name`` at ``indices`` without a copy: ``(values, index)`` with
        ``values[index] == column(name)[indices]`` (``index is None``: ``values``).
        An untouched backed column answers 1-D row arrays from the store (which
        may cache its lookup per array): mutate neither; else ``(column, indices)``."""
        rows = np.asarray(indices)
        if (
            self._locate is not None
            and name not in self._columns
            and rows.ndim == 1
            and rows.dtype.kind in "iu"
        ):
            self.schema[name]  # KeyError for unknown attributes
            return self._locate(name, rows)
        return self.column(name), rows

    def take(self, name: str, indices: np.ndarray) -> np.ndarray | Ragged:
        """Vectorized gather of ``name`` at ``indices`` (returns a copy):
        ``column(name)[indices]``, read through :meth:`locate`; of a ragged
        attribute, :meth:`Ragged.take` of integer rows."""
        values, index = self.locate(name, indices)
        if index is None:
            return values
        return values.take(index) if isinstance(values, Ragged) else values[index]

    def approx_nbytes(self) -> int:
        """Resident bytes of the materialized columns' arrays, exactly (the GC
        pause model's input)."""
        return sum(col.nbytes for col in self._columns.values())

    def copy(self) -> "AttributeTable":
        """Copy of the materialized columns; a backed table's untouched
        columns stay backed in the copy."""
        out = AttributeTable(self.schema, self.n, locate=self._locate)
        for name, col in self._columns.items():
            out._columns[name] = col.copy()
        return out

    def equals(self, other: "AttributeTable") -> bool:
        """Value equality over materialized columns — and over a backed
        table's untouched ones, which hold values too (used by tests/serde)."""
        if self.n != other.n or self.schema != other.schema:
            return False
        names = set(self._valued_names()) | set(other._valued_names())
        for name in names:
            a, b = self.column(name), other.column(name)
            if not (a.equals(b) if self.schema[name].ragged else np.array_equal(a, b)):
                return False
        return True


def _checked_ragged(name: str, column: Ragged, n: int) -> Ragged:
    """A copy of ``column`` as int64 arrays, if it is ``n`` rows of integers."""
    if not isinstance(column, Ragged) or column.n != n:
        raise ValueError(f"ragged column {name!r} must be a Ragged of {n} rows")
    owners, values = np.asarray(column.owners), np.asarray(column.values)
    if owners.ndim != 1 or values.ndim != 1 or {owners.dtype.kind, values.dtype.kind} - {"i", "u"}:
        raise ValueError(f"ragged column {name!r} must hold 1-D integer owners and values")
    check_ragged(owners, values, n, f"ragged column {name!r}'s owners")
    return Ragged(n, owners.astype(np.int64), values.astype(np.int64))
