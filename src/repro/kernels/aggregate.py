"""Flattened-index aggregation over ragged object columns.

Tweet containers (tuples of hashtag ids or strings, or ``None``) live in
object-dtype attribute columns.  A per-cell scan is nested Python loops —
O(cells × container) interpreter work per timestep.  These kernels flatten all containers into one contiguous array once and
answer count/membership queries with a single vectorized comparison,
falling back to per-element Python equality only when the flat array's
dtype cannot be compared to the query value wholesale (numpy returns a
scalar ``False`` instead of a mask in that case — semantics preserved).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

__all__ = ["flatten_cells", "count_equal", "count_equal_in_cells", "contains_in_cells"]


def flatten_cells(cells) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ragged containers into ``(flat, lengths)``.

    ``lengths[i]`` is the element count of ``cells[i]`` (``None``/empty/
    falsy → 0) and ``flat`` holds every element in cell order.  The flat
    array keeps a homogeneous dtype when the elements allow it and degrades
    to object dtype otherwise (mixed or nested element types).
    """
    lengths = np.fromiter(
        (len(c) if c else 0 for c in cells), dtype=np.int64, count=len(cells)
    )
    total = int(lengths.sum())
    if not total:
        return np.empty(0, dtype=object), lengths
    flat = list(chain.from_iterable(c for c in cells if c))
    arr = None
    try:
        cand = np.asarray(flat)
        if cand.ndim == 1:
            # Mixed int/str containers coerce to a string dtype, corrupting
            # equality semantics ('2' != 2); keep those as objects instead.
            if cand.dtype.kind not in "US" or all(isinstance(x, str) for x in flat):
                arr = cand
    except (ValueError, TypeError):
        pass
    if arr is None:
        arr = np.empty(len(flat), dtype=object)
        arr[:] = flat
    return arr, lengths


def _equal_mask(flat: np.ndarray, value) -> np.ndarray:
    """Elementwise ``flat == value`` with Python-equality semantics."""
    if isinstance(value, (tuple, list, np.ndarray)):
        # A sequence-valued query would broadcast as an array, comparing
        # its items instead of the sequence itself.
        eq = None
    else:
        try:
            eq = flat == value
        except ValueError:
            eq = None
    if not isinstance(eq, np.ndarray) or eq.shape != flat.shape or eq.dtype != bool:
        # Incomparable dtypes (e.g. a string column against an int tag)
        # yield a scalar; fall back to per-element Python equality.
        eq = np.fromiter((h == value for h in flat), dtype=bool, count=len(flat))
    return eq


def count_equal(flat: np.ndarray, value) -> int:
    """Occurrences of ``value`` in a flat array (Python ``==`` semantics)."""
    if not flat.size:
        return 0
    return int(np.count_nonzero(_equal_mask(flat, value)))


def count_equal_in_cells(cells, value) -> int:
    """Total occurrences of ``value`` across all containers, with multiplicity."""
    flat, _lengths = flatten_cells(cells)
    return count_equal(flat, value)


def contains_in_cells(cells, value) -> np.ndarray:
    """Boolean mask: does ``cells[i]`` contain ``value``?

    Vectorized equivalent of ``tw is not None and value in tw`` per cell.
    """
    flat, lengths = flatten_cells(cells)
    out = np.zeros(len(lengths), dtype=bool)
    if flat.size:
        eq = _equal_mask(flat, value)
        if eq.any():
            owner = np.arange(len(lengths), dtype=np.int64).repeat(lengths)
            out[owner[eq]] = True
    return out
