"""Connected components by hook-and-compress over an edge list.

Each round hooks the larger root of every still-active edge under the
smaller one (a single ``np.minimum.at``), pointer-jumps the forest flat,
and drops the edges whose ends now agree — a handful of rounds on road and
small-world graphs alike, where propagating minima along edges needs as
many rounds as the graph is wide.  Edges are undirected.  This is the one
graph algorithm ingest needs (a subgraph is a weak component over local
edges) and what community evolution runs per instance.
"""

from __future__ import annotations

import numpy as np

from .csr import slot_sources

__all__ = ["components", "csr_components"]


def _hook_and_compress(
    parent: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round over a flat forest; returns it flat again, and the edges
    that still join two trees."""
    a, b = parent[src], parent[dst]
    np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
    while True:  # pointer jumping: a root's root is the root
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            break
        parent = nxt
    active = parent[src] != parent[dst]
    return parent, src[active], dst[active]


def components(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[int, np.ndarray]:
    """Weak components of vertices ``0..n-1`` joined by edges ``src[i] — dst[i]``.

    Returns ``(ncomp, comp_id)`` with components numbered 0..ncomp-1 in
    order of their minimum vertex: a root is only ever hooked under a
    smaller one, so each tree ends rooted at its component's minimum.
    """
    parent = np.arange(n, dtype=np.int64)
    while len(src):
        parent, src, dst = _hook_and_compress(parent, src, dst)
    is_root = parent == np.arange(n, dtype=np.int64)
    return int(is_root.sum()), (is_root.cumsum() - 1)[parent]


def csr_components(
    indptr: np.ndarray,
    indices: np.ndarray,
    *,
    edge_mask: np.ndarray | None = None,
) -> tuple[int, np.ndarray]:
    """:func:`components` of a local CSR graph; ``edge_mask`` (per CSR
    slot) restricts to currently existing edges."""
    src, dst = slot_sources(indptr), np.asarray(indices, dtype=np.int64)
    if edge_mask is not None:
        src, dst = src[edge_mask], dst[edge_mask]
    return components(len(indptr) - 1, src, dst)
