"""Frontier-at-a-time traversal kernels: batched relaxation and gated BFS.

Both kernels settle a whole frontier per round with numpy primitives and
iterate to the local fixpoint — the subgraph-centric inner loop of the
shortest-path and traversal family, minus the Python interpreter.

Bit-identity with the per-vertex formulations (the reference oracles):

* :func:`relax_to_fixpoint` computes the unique least fixpoint of
  ``label[w] = min(label[u] + weight(u, w))``.  Dijkstra reaches the same
  fixpoint; the final label of every vertex is produced by the identical
  float addition (final predecessor label + edge weight), so the resulting
  arrays are bit-identical, not merely close.
* :func:`expand_to_fixpoint` marks exactly the vertices a gated BFS deque
  would visit — set semantics, no float arithmetic involved.
"""

from __future__ import annotations

import numpy as np

from .csr import gather_ranges

__all__ = ["relax_to_fixpoint", "expand_to_fixpoint", "any_neighbor"]

_EMPTY = np.empty(0, dtype=np.int64)


def relax_to_fixpoint(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    seeds: np.ndarray,
    *,
    bound: float | None = None,
    blocked: np.ndarray | None = None,
    slot_src: np.ndarray | None = None,
) -> np.ndarray:
    """Batched Bellman-Ford relaxation from ``seeds`` until no label improves.

    Mutates ``labels`` in place and returns a boolean mask of the vertices
    whose label improved.  ``weights`` is per-CSR-slot (parallel to
    ``indices``).  With ``bound``, candidate labels above it are discarded
    (TDSP's window confinement); with ``blocked``, those vertices never
    improve (TDSP's finalized set) though they still relax outward when
    seeded.  ``slot_src`` (per-slot source vertex, :func:`slot_sources`)
    is computed lazily when omitted; callers looping over timesteps should
    cache and pass it.

    Each round forms every frontier edge's candidate label at once,
    scatter-mins the improvements into ``labels``, and makes the touched
    destinations the next frontier.  Taking a minimum selects one of the
    candidate floats without further arithmetic, so the per-destination
    winner carries the exact bits of its ``label + weight`` addition.  Wide
    frontiers (half the slots or more) skip the gather and sweep the whole
    CSR: a non-frontier source is already settled against all its edges,
    so its extra candidates never pass the strict improvement test and the
    round's updates are unchanged.  Non-negative weights guarantee
    termination.
    """
    n = len(labels)
    improved = np.zeros(n, dtype=bool)
    in_next = np.zeros(n, dtype=bool)
    not_blocked = None if blocked is None else ~blocked
    frontier = np.asarray(seeds, dtype=np.int64)
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[1:][frontier] - starts
        total = int(counts.sum())
        if not total:
            break
        if 2 * total >= len(indices):
            if slot_src is None:
                slot_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            dst = indices
            cand = labels[slot_src] + weights
        else:
            cum = np.cumsum(counts)
            slots = np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - counts), counts)
            dst = indices[slots]
            cand = np.repeat(labels[frontier], counts)
            cand += weights[slots]
        ok = cand < labels[dst]
        if bound is not None:
            ok &= cand <= bound
        if not_blocked is not None:
            ok &= not_blocked[dst]
        dst, cand = dst[ok], cand[ok]
        if not dst.size:
            break
        # Every surviving candidate beats its destination's old label, so
        # each touched destination improves (to its min candidate) and the
        # deduplicated touch set is exactly the next frontier.
        np.minimum.at(labels, dst, cand)
        improved[dst] = True
        in_next[dst] = True
        frontier = np.flatnonzero(in_next)
        in_next[frontier] = False
    return improved


def expand_to_fixpoint(
    indptr: np.ndarray,
    indices: np.ndarray,
    seeds: np.ndarray,
    visited: np.ndarray,
    expanded: np.ndarray,
    *,
    edge_ok: np.ndarray | None = None,
    vertex_ok: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-source gated BFS from ``seeds`` until the frontier empties.

    ``visited`` and ``expanded`` are mutated in place: a vertex is *visited*
    when first reached (ever) and *expanded* when its out-edges are scanned
    (at most once per ``expanded`` epoch — callers reset it per timestep).
    Seeds must already be visited; already-expanded seeds are skipped.

    ``edge_ok`` gates traversal per CSR slot (reachability's ``is_exists``),
    ``vertex_ok`` per destination vertex (meme tracking's carrier mask).

    Returns ``(newly_visited, expanded_now)`` — duplicate-free local vertex
    arrays for, respectively, recording first-visit timestamps and issuing
    remote notifications.
    """
    newly: list[np.ndarray] = []
    expanded_now: list[np.ndarray] = []
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    if frontier.size:
        frontier = frontier[~expanded[frontier]]
    while frontier.size:
        expanded[frontier] = True
        expanded_now.append(frontier)
        slots, _src = gather_ranges(indptr, frontier)
        if edge_ok is not None and slots.size:
            slots = slots[edge_ok[slots]]
        cand = indices[slots] if slots.size else _EMPTY
        if cand.size:
            cand = cand[~visited[cand]]
        if vertex_ok is not None and cand.size:
            cand = cand[vertex_ok[cand]]
        if not cand.size:
            break
        cand = np.unique(cand)
        visited[cand] = True
        newly.append(cand)
        frontier = cand[~expanded[cand]]
    return (
        np.concatenate(newly) if newly else _EMPTY,
        np.concatenate(expanded_now) if expanded_now else _EMPTY,
    )


def any_neighbor(slot_src: np.ndarray, indices: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per vertex: does it have a CSR neighbour ``w`` with ``mask[w]``?

    ``slot_src`` is the per-slot source vertex (parallel to ``indices``).
    The "still has work next to it" test the traversal family runs in
    ``end_of_timestep`` to pick next-timestep roots.  Setting True is
    idempotent, so a plain boolean scatter over the selected slots gives
    exactly ``np.logical_or.at(out, slot_src, mask[indices])`` without the
    unbuffered ufunc loop.
    """
    out = np.zeros(len(mask), dtype=bool)
    out[slot_src[mask[indices]]] = True
    return out
