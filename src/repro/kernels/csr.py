"""CSR slot arithmetic shared by the frontier kernels."""

from __future__ import annotations

import numpy as np

__all__ = ["gather_ranges", "index_mask", "segment_starts", "slot_sources", "sorted_unique"]

_EMPTY = np.empty(0, dtype=np.int64)


def gather_ranges(indptr: np.ndarray, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand the CSR slot ranges of ``verts`` into flat arrays.

    Returns ``(slots, sources)`` where ``slots`` concatenates
    ``range(indptr[v], indptr[v+1])`` for each ``v`` in ``verts`` (in order)
    and ``sources[i]`` is the vertex owning ``slots[i]``.  This is the
    vectorized form of the per-vertex adjacency loop: one call materializes
    every edge slot a whole frontier touches.
    """
    verts = np.asarray(verts, dtype=np.int64)
    if not verts.size:
        return _EMPTY, _EMPTY
    starts = indptr[verts]
    counts = indptr[verts + 1] - starts
    total = int(counts.sum())
    if not total:
        return _EMPTY, _EMPTY
    cum = np.cumsum(counts)
    # Each block of `counts[j]` consecutive outputs begins at starts[j];
    # subtracting the running block origin turns a flat arange into
    # per-block slot offsets.
    slots = np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - counts), counts)
    return slots, np.repeat(verts, counts)


def slot_sources(indptr: np.ndarray) -> np.ndarray:
    """Source vertex of every CSR slot (``slots`` → owning row)."""
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def index_mask(indices: np.ndarray, size: int) -> np.ndarray:
    """Boolean mask of length ``size``, True at ``indices`` (repeats allowed)."""
    mask = np.zeros(size, dtype=bool)
    mask[indices] = True
    return mask


def segment_starts(arr: np.ndarray) -> np.ndarray:
    """Indices where a sorted array starts a new run."""
    change = np.empty(len(arr), dtype=bool)
    change[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=change[1:])
    return np.flatnonzero(change)


def sorted_unique(*arrays: np.ndarray) -> np.ndarray:
    """Sorted distinct values of the union of index arrays: ``np.unique`` by
    sort + neighbour compare, without its hash-then-sort path (numpy 2.4:
    445 µs against 35 µs at 5k int64) — the traversal family dedupes small
    seed unions and frontiers, often."""
    arr = np.sort(np.concatenate(arrays), axis=None) if arrays else _EMPTY
    return arr[segment_starts(arr)] if arr.size > 1 else arr
