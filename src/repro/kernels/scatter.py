"""Grouped scatter reductions for bulk remote messaging.

The shortest-path and traversal computations ship per-destination-subgraph
batches over remote edges.  These helpers fold a flat (group, key[, value])
triple down to one deduplicated batch per group, with no per-edge Python
dict/set accumulation.  Groups and keys (subgraph
ids, global vertex ids) are non-negative, so each pair fuses into a single
int64 sort key: one stable argsort plus a segmented ``minimum.reduceat``
beats the equivalent three-key lexsort.  Receivers fold minima (or
membership) anyway, so batch ordering is free; the sorted output
additionally makes sends deterministic.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .csr import segment_starts, sorted_unique

__all__ = ["combine_min_labels", "group_min_pairs", "group_unique_pairs"]


def group_min_pairs(
    groups: np.ndarray, keys: np.ndarray, values: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Minimum ``values`` per (group, key); yields ``(group, keys, minima)``.

    Keys within each yielded batch are sorted ascending and unique.  The
    per-pair minimum selects one of the candidate floats — no arithmetic —
    so batches are bit-identical to a scalar dict fold.
    """
    if not len(groups):
        return
    keys = np.asarray(keys, dtype=np.int64)
    span = int(keys.max()) + 1
    fused = np.asarray(groups, dtype=np.int64) * span
    fused += keys
    order = fused.argsort(kind="stable")
    starts = segment_starts(fused[order])
    mins = np.minimum.reduceat(np.asarray(values)[order], starts)
    firsts = order[starts]
    g, k = np.asarray(groups)[firsts], keys[firsts]
    cuts = segment_starts(g).tolist()
    for s, e in zip(cuts, cuts[1:] + [len(g)]):
        yield int(g[s]), k[s:e], mins[s:e]


def group_unique_pairs(
    groups: np.ndarray, keys: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Unique ``keys`` per group; yields ``(group, keys)`` sorted ascending."""
    if not len(groups):
        return
    keys = np.asarray(keys, dtype=np.int64)
    span = int(keys.max()) + 1
    fused = sorted_unique(np.asarray(groups, dtype=np.int64) * span + keys)
    g, k = np.divmod(fused, span)
    cuts = segment_starts(g).tolist()
    for s, e in zip(cuts, cuts[1:] + [len(g)]):
        yield int(g[s]), k[s:e]


def combine_min_labels(payloads: list) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``(vertices, labels)`` relaxation batches into per-vertex minima.

    The message combiner shared by the shortest-path family (SSSP, BFS,
    TDSP): several subgraphs relaxing the same destination subgraph collapse
    to one batch keeping only the best label per vertex — receivers take the
    minimum anyway, so results are unchanged while remote bytes shrink.
    """
    verts = np.concatenate([np.atleast_1d(np.asarray(v, dtype=np.int64)) for v, _ in payloads])
    labels = np.concatenate([np.atleast_1d(np.asarray(l, dtype=np.float64)) for _, l in payloads])
    order = np.lexsort((labels, verts))
    verts, labels = verts[order], labels[order]
    keep = np.ones(len(verts), dtype=bool)
    keep[1:] = verts[1:] != verts[:-1]
    return verts[keep], labels[keep]
