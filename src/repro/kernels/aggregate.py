"""Membership and counting over a ragged column (the tweets' hashtags).

A ragged column is two int64 arrays, ``offsets`` and ``values``
(:class:`~repro.graph.attributes.Ragged`): row ``i`` holds
``values[offsets[i]:offsets[i + 1]]``.  Both kernels compare ``values``
against the query once; :func:`contains` maps the hits back to their rows
with one binary search per hit, and the cells are nearly all empty.
"""

from __future__ import annotations

import numpy as np

__all__ = ["contains", "count"]


def contains(cells, value: int) -> np.ndarray:
    """Boolean mask over the rows of ``cells``: does row ``i`` hold ``value``?"""
    offsets, values = cells
    out = np.zeros(len(offsets) - 1, dtype=bool)
    lo = offsets[0]
    hits = (values[lo : offsets[-1]] == value).nonzero()[0]
    if hits.size:
        out[offsets.searchsorted(hits + lo, side="right") - 1] = True
    return out


def count(cells, value: int) -> int:
    """Occurrences of ``value`` across the rows of ``cells``, with multiplicity."""
    offsets, values = cells
    return int(np.count_nonzero(values[offsets[0] : offsets[-1]] == value))
