"""Membership and counting over a ragged column (the tweets' hashtags).

A ragged column is a row count and two int64 arrays, ``owners`` and
``values`` (:class:`~repro.graph.attributes.Ragged`): row ``i`` holds
``values[owners == i]``.  Both kernels compare ``values`` against the query
once; :func:`contains` marks the hits' owners.  An empty row stores nothing,
so a kernel costs what the column holds, not its row count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["contains", "count"]


def contains(cells, value: int) -> np.ndarray:
    """Boolean mask over the rows of ``cells``: does row ``i`` hold ``value``?"""
    n, owners, values = cells
    out = np.zeros(n, dtype=bool)
    out[owners[values == value]] = True
    return out


def count(cells, value: int) -> int:
    """Occurrences of ``value`` across the rows of ``cells``, with multiplicity."""
    _n, _owners, values = cells
    return int(np.count_nonzero(values == value))
