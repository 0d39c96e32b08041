"""Slice files: the GoFS on-disk unit (Section IV-A, [18]).

A slice bundles the instance attribute values of a *subgraph bin* (up to
``binning`` subgraphs of one partition, spatially grouped) across a
*temporal pack* (``packing`` consecutive timesteps, temporally grouped):

    slice(partition p, bin b, pack k)  ↦  values[attr][pack_len, rows]

where rows are the bin's vertices (for vertex attributes) or the edges
touched by the bin's subgraphs — local edges plus outgoing remote edges (for
edge attributes).  Grouping 10 instances × 5 subgraphs per file is what lets
GoFS amortize disk access and produces Fig 6's every-10th-timestep load
bumps.

Slices are ``.gsl`` files in the zero-copy GSL2 container
(:func:`repro.storage.serde.pack_arrays`): framed header plus contiguous
aligned raw buffers per attribute column, read back as ``np.frombuffer``
views so a pack load is near-memcpy.  Object columns (e.g. tweet lists)
ride a pickled side-channel inside the same file.  Compression (a zlib
payload) is a writer flag.

:func:`read_slice` reads the file and validates the header eagerly and
decodes each column on its first access, so the cost of a column — above all
the unpickle of an object column — is paid only by a reader that uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..graph.instance import GraphInstance
from ..graph.subgraph import Subgraph
from .serde import PackedArrays, pack_arrays, unpack_arrays

__all__ = [
    "SLICE_FORMAT",
    "SliceKey",
    "slice_filename",
    "bin_rows",
    "write_slice",
    "read_slice",
    "slice_nbytes",
]

#: The manifest's ``slice_format`` value: 2 = GSL2 (1 was ``.npz``, no longer read).
SLICE_FORMAT = 2


@dataclass(frozen=True)
class SliceKey:
    """Identity of one slice file."""

    partition: int
    bin: int
    pack: int


def slice_filename(key: SliceKey) -> str:
    """Canonical file name for a slice."""
    return f"slice_p{key.partition:03d}_b{key.bin:04d}_k{key.pack:04d}.gsl"


def bin_rows(subgraphs: list[Subgraph]) -> tuple[np.ndarray, np.ndarray]:
    """(vertex rows, edge rows) covered by a subgraph bin.

    Vertex rows: the union of the bin's vertices.  Edge rows: every dense
    template edge index referenced by the bin's local adjacency or outgoing
    remote edges (deduplicated — undirected local edges appear twice in
    adjacency).
    """
    verts = (
        np.unique(np.concatenate([sg.vertices for sg in subgraphs]))
        if subgraphs
        else np.empty(0, dtype=np.int64)
    )
    edge_parts = [sg.edge_index for sg in subgraphs] + [sg.remote.edge_index for sg in subgraphs]
    edge_parts = [e for e in edge_parts if len(e)]
    edges = np.unique(np.concatenate(edge_parts)) if edge_parts else np.empty(0, dtype=np.int64)
    return verts, edges


def _pack_matrices(
    vertex_rows: np.ndarray,
    edge_rows: np.ndarray,
    instances: list[GraphInstance],
) -> dict[str, np.ndarray]:
    """Assemble slice arrays with one preallocated ``(pack_len, rows)``
    matrix per attribute, filled row-by-row in place (no ``np.stack``
    double-copy)."""
    arrays: dict[str, np.ndarray] = {
        "vertex_rows": vertex_rows,
        "edge_rows": edge_rows,
        "timestamps": np.asarray([inst.timestamp for inst in instances]),
    }
    if not instances:
        return arrays
    tpl = instances[0].template
    pack_len = len(instances)
    for spec in tpl.vertex_schema:
        mat = np.empty((pack_len, len(vertex_rows)), dtype=spec.dtype)
        for i, inst in enumerate(instances):
            np.take(inst.vertex_values.column(spec.name), vertex_rows, out=mat[i])
        arrays[f"v__{spec.name}"] = mat
    for spec in tpl.edge_schema:
        mat = np.empty((pack_len, len(edge_rows)), dtype=spec.dtype)
        for i, inst in enumerate(instances):
            np.take(inst.edge_values.column(spec.name), edge_rows, out=mat[i])
        arrays[f"e__{spec.name}"] = mat
    return arrays


def write_slice(
    root: Path,
    key: SliceKey,
    vertex_rows: np.ndarray,
    edge_rows: np.ndarray,
    instances: list[GraphInstance],
    *,
    compress: bool = False,
) -> Path:
    """Write one slice: the given rows of every schema attribute × instances.

    Columns are packed into ``(pack_len, rows)`` matrices per attribute so a
    later read is one contiguous load per attribute.
    """
    path = Path(root) / slice_filename(key)
    arrays = _pack_matrices(vertex_rows, edge_rows, instances)
    path.write_bytes(pack_arrays(arrays, compress=compress))
    return path


def read_slice(
    root: Path, key: SliceKey, *, allow_objects: bool | None = None
) -> PackedArrays:
    """Read a slice file and validate its header; decode nothing yet.

    Eager: the file read, the header checks of
    :func:`~repro.storage.serde.unpack_arrays`, and the ``allow_objects``
    gate — ``False`` fails loudly here if the slice holds object columns,
    ``True`` and ``None`` permit them.  A missing or malformed file raises
    naming the ``.gsl`` path and the key.  Per column, on first
    ``data[name]``: numeric columns become read-only zero-copy views over
    the file bytes and object columns are unpickled — a column nobody reads
    is never decoded.
    """
    path = Path(root) / slice_filename(key)
    try:
        buf = path.read_bytes()
    except FileNotFoundError:
        raise FileNotFoundError(f"GoFS slice {path} ({key}) is missing") from None
    try:
        return unpack_arrays(buf, allow_objects=allow_objects)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"GoFS slice {path} ({key}) is malformed: {exc}") from exc


def slice_nbytes(data: PackedArrays) -> int:
    """Approximate resident bytes of one loaded slice (GC-model input).

    Computed from the header, so it is the same number whether or not any
    column has been decoded.  Object columns count a flat 64 bytes per
    element: the arrays only hold pointers to variable-size Python objects
    the model cannot cheaply size.
    """
    total = 0
    for name in data:
        entry = data.entry(name)
        total += 64 * math.prod(entry["shape"]) if entry["kind"] == "pickle" else entry["nbytes"]
    return total
