"""Slice files: the GoFS on-disk unit (Section IV-A, [18]).

A slice bundles the instance attribute values of a *subgraph bin* (up to
``binning`` subgraphs of one partition, spatially grouped) across a
*temporal pack* (``packing`` consecutive timesteps, temporally grouped):

    slice(partition p, bin b, pack k)  ↦  values[attr][pack_len, rows]

where rows are the bin's vertices (for vertex attributes) or the edges
touched by the bin's subgraphs — local edges plus outgoing remote edges (for
edge attributes).  Grouping 10 instances × 5 subgraphs per file is what lets
GoFS amortize disk access and produces Fig 6's every-10th-timestep load
bumps.  A bin's rows never change, so its *rows file* holds them once (slice
format 4) and its slices hold attribute columns only.

Slices are ``.gsl`` files in the zero-copy GSL2 container
(:func:`repro.storage.serde.write_arrays`): framed header plus contiguous
aligned raw buffers per attribute column, read back as ``np.frombuffer``
views so a pack load is near-memcpy.  A numeric attribute is one
``(pack_len, rows)`` matrix.  A ragged attribute (the tweets' hashtags) is
two 1-D int64 arrays, one entry per value: its name holds the sorted keys
``i * rows + position`` of timestep ``i``'s values and ``name.values`` the
values — so the pack is ``Ragged(pack_len * rows, keys, values)``, a slice
holds numbers only and an empty row stores nothing (format 6; format 5
stored one offset per row per timestep, format 4 pickled a column of
tuples).  A column that no
instance of the pack has set is not stored: the header lists it under
``defaults`` and readers serve the schema default.

:func:`read_slice` reads and validates the header, the payload on first use
and each column on its first access, so the cost of a column is paid only
by a reader that uses it.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..graph.instance import GraphInstance
from ..graph.subgraph import Subgraph
from ..kernels.csr import sorted_unique
from .serde import PackedArrays, open_arrays, read_arrays, write_arrays

__all__ = [
    "SLICE_FORMAT",
    "SliceKey",
    "slice_filename",
    "rows_filename",
    "bin_rows",
    "write_rows",
    "read_rows",
    "write_slice",
    "read_slice",
    "slice_nbytes",
    "RAGGED_VALUES",
]

#: The manifest's ``slice_format`` value: 6 = a ragged column as its
#: (key, value) pairs (5 stored per-row offsets, 4 pickled it; 3 repeated a
#: bin's rows in every slice, 2 also stored never-set columns instead of
#: naming them under ``defaults``, 1 was ``.npz``; none is read).
SLICE_FORMAT = 6

#: Suffix of the entry holding a ragged column's values; their keys are
#: stored under the column's own name.
RAGGED_VALUES = ".values"

#: Rows-file entries: template rows of the ``v__*`` / ``e__*`` columns.
_ROWS_KEYS = ("vertex_rows", "edge_rows")


class SliceKey(NamedTuple):
    """Identity of one slice file."""

    partition: int
    bin: int
    pack: int


def slice_filename(key: SliceKey) -> str:
    """Canonical file name for a slice."""
    return f"slice_p{key.partition:03d}_b{key.bin:04d}_k{key.pack:04d}.gsl"


def rows_filename(partition: int, bin: int) -> str:
    """Canonical file name for a bin's rows file."""
    return f"rows_p{partition:03d}_b{bin:04d}.gsl"


def bin_rows(subgraphs: list[Subgraph]) -> tuple[np.ndarray, np.ndarray]:
    """(vertex rows, edge rows) covered by a subgraph bin.

    Vertex rows: the union of the bin's vertices.  Edge rows: every dense
    template edge index referenced by the bin's local adjacency or outgoing
    remote edges (deduplicated — undirected local edges appear twice in
    adjacency).
    """
    verts = sorted_unique(*(sg.vertices for sg in subgraphs))
    edges = sorted_unique(
        *(sg.edge_index for sg in subgraphs), *(sg.remote.edge_index for sg in subgraphs)
    )
    return verts, edges


def write_rows(root: Path, partition: int, bin: int, rows: tuple[np.ndarray, np.ndarray]) -> None:
    """Write one bin's rows file: its :func:`bin_rows`, once for every pack."""
    with open(Path(root) / rows_filename(partition, bin), "wb") as fp:
        write_arrays(fp, dict(zip(_ROWS_KEYS, rows)))


def read_rows(root: Path, partition: int, bin: int, sizes: tuple[int, int]) -> tuple:
    """Read and check one bin's ``(vertex rows, edge rows)``: each int64,
    1-D, strictly increasing and below its side's template size — the view's
    row index is addressed by them.  Else a ``ValueError`` naming the file."""
    path = Path(root) / rows_filename(partition, bin)
    data = read_arrays(path)
    for key, n in zip(_ROWS_KEYS, sizes):
        rows = data.get(key)
        if not (
            rows is not None and rows.dtype == np.int64 and rows.ndim == 1
            and (rows[1:] > rows[:-1]).all() and (not rows.size or 0 <= rows[0] and rows[-1] < n)
        ):
            raise ValueError(
                f"GoFS rows file {path}: {key} is not strictly increasing int64 rows in [0, {n})"
            )
    return data["vertex_rows"], data["edge_rows"]


def write_slice(
    root: Path,
    key: SliceKey,
    vertex_rows: np.ndarray,
    edge_rows: np.ndarray,
    instances: list[GraphInstance],
) -> Path:
    """Write one slice: the given rows of every *set* attribute × instances.

    Each attribute some instance of the pack has set is gathered into one
    ``(pack_len, rows)`` matrix — a ragged one into its keys and values —
    so a later read is one contiguous load, and streamed to the file once.
    An attribute none has set is not materialized, only named under the
    header's ``defaults``.  The rows are not stored here (:func:`write_rows`).
    """
    arrays: dict[str, np.ndarray] = {}
    defaults: list[str] = []
    for prefix, rows, tables in (
        ("v", vertex_rows, [inst.vertex_values for inst in instances]),
        ("e", edge_rows, [inst.edge_values for inst in instances]),
    ):
        valued = set().union(*(table._valued_names() for table in tables))
        for spec in tables[0].schema if tables else ():
            entry = f"{prefix}__{spec.name}"
            if spec.name not in valued:
                defaults.append(entry)
            elif spec.ragged:  # timestep i's rows are keys i * |rows| + position
                cells = [table.column(spec.name).take(rows) for table in tables]
                arrays[entry] = np.concatenate([c.owners + i * len(rows) for i, c in enumerate(cells)])
                arrays[entry + RAGGED_VALUES] = np.concatenate([c.values for c in cells])
            else:
                mat = np.empty((len(tables), len(rows)), dtype=spec.dtype)
                for i, table in enumerate(tables):
                    np.take(table.column(spec.name), rows, out=mat[i])
                arrays[entry] = mat
    path = Path(root) / slice_filename(key)
    with open(path, "wb") as fp:
        write_arrays(fp, arrays, defaults=defaults)
    return path


def read_slice(root: Path, key: SliceKey) -> PackedArrays:
    """Read a slice file's header and validate it; read nothing else yet.

    Now: the header checks of :func:`~repro.storage.serde.open_arrays`.  On
    ``read_payload()`` or the first ``data[name]``: the payload, in one read.
    Per column, on first ``data[name]``: a read-only zero-copy view.  Every
    error of either read names the ``.gsl`` path and the key; an ``OSError``
    keeps its type.
    """
    path = Path(root) / slice_filename(key)
    return open_arrays(path, name=f"GoFS slice {path} ({key})")


def slice_nbytes(data: PackedArrays) -> int:
    """Resident bytes of one loaded slice's arrays (GC-model input), exactly.

    Computed from the header, so it is the same number whether or not any
    column has been decoded.
    """
    return sum(data.entry(name)["nbytes"] for name in data)
