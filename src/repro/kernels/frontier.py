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

Call form: a round handles a median 61-vertex frontier, so it costs calls,
not elements.  Inside a round loop use the array's own method (``c.cumsum()``,
``x.repeat(c)``, ``m.nonzero()[0]``: the ``np.`` wrappers cost 2–3× as much at
that size), build ``slots`` in place, and filter a round's survivors once, by
position, where two arrays share the mask.  CI greps for the function forms.
"""

from __future__ import annotations

import numpy as np

from .csr import gather_ranges, slot_sources, sorted_unique

__all__ = ["relax_to_fixpoint", "expand_to_fixpoint", "open_boundary"]

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
    weight_index: np.ndarray | None = None,
) -> np.ndarray:
    """Batched Bellman-Ford relaxation from ``seeds`` until no label improves.

    Mutates ``labels`` in place and returns the vertices whose label
    improved as an index array — every round's duplicate-free frontier,
    concatenated, so a vertex that improved in several rounds repeats
    (:func:`sorted_unique` it for the set); no work here is proportional to
    the vertex count.  ``weights`` is per-CSR-slot (parallel to ``indices``),
    or with ``weight_index`` slot ``i`` weighs ``weights[weight_index[i]]``
    (``ctx.locate_edges``: rounds read the slots they touch, in place).
    With ``bound``, candidate labels above it are discarded (TDSP's window
    confinement); with ``blocked``, those vertices never improve (TDSP's
    finalized set) though they still relax outward when seeded.
    ``slot_src`` (per-slot source vertex, :func:`slot_sources`) is read by
    wide rounds only, and computed on the first one when omitted.

    Each round forms every frontier edge's candidate label at once,
    scatter-mins the improvements into ``labels``, and makes the touched
    destinations the next frontier.  Taking a minimum selects one of the
    candidate floats without further arithmetic, so the per-destination
    winner carries the exact bits of its ``label + weight`` addition.  Wide
    frontiers (half the slots or more) skip the gather and sweep the whole
    CSR: a non-frontier source is already settled against all its edges,
    so its extra candidates never pass the strict improvement test and the
    round's updates are unchanged — as long as every finite label belongs
    to a vertex seeded or improved here: callers keeping ``labels`` across
    calls reset it in between.  Non-negative weights guarantee termination.
    """
    ends = indptr[1:]
    owner = np.empty(len(labels), dtype=np.int64)  # scratch, never read unwritten
    improved: list[np.ndarray] = []
    frontier = np.asarray(seeds, dtype=np.int64)
    while frontier.size:
        starts = indptr[frontier]
        counts = ends[frontier] - starts
        cum = counts.cumsum()
        total = int(cum[-1])
        if not total:
            break
        if 2 * total >= len(indices):
            if slot_src is None:
                slot_src = slot_sources(indptr)
            dst = indices
            cand = labels[slot_src] + (weights if weight_index is None else weights[weight_index])
        else:
            slots = (starts - cum + counts).repeat(counts)
            slots += np.arange(total)
            dst = indices[slots]
            cand = labels[frontier].repeat(counts)
            cand += weights[slots if weight_index is None else weight_index[slots]]
        ok = cand < labels[dst]
        if bound is not None:
            ok &= cand <= bound
        if blocked is not None:
            ok &= ~blocked[dst]
        keep = ok.nonzero()[0]
        if not keep.size:
            break
        dst, cand = dst[keep], cand[keep]
        # Every surviving candidate beats its destination's old label, so
        # each touched destination improves (to its min candidate) and the
        # deduplicated touch set — per destination, the candidate that wrote
        # ``owner`` last — is exactly the next frontier.
        np.minimum.at(labels, dst, cand)
        nth = np.arange(dst.size)
        owner[dst] = nth
        frontier = dst[owner[dst] == nth]
        improved.append(frontier)
    return np.concatenate(improved) if improved else _EMPTY


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
    arrays for, respectively, collecting the timestep's newly reached set
    (no scan over the vertex count finds it) and issuing remote notifications.
    """
    newly: list[np.ndarray] = []
    expanded_now: list[np.ndarray] = []
    frontier = sorted_unique(np.asarray(seeds, dtype=np.int64))
    frontier = frontier[~expanded[frontier]]
    while frontier.size:
        expanded[frontier] = True
        expanded_now.append(frontier)
        slots, _src = gather_ranges(indptr, frontier)
        if edge_ok is not None:
            slots = slots[edge_ok[slots].nonzero()[0]]
        cand = indices[slots]
        ok = ~visited[cand]
        if vertex_ok is not None:
            ok &= vertex_ok[cand]
        keep = ok.nonzero()[0]
        if not keep.size:
            break
        cand = sorted_unique(cand[keep])
        visited[cand] = True
        newly.append(cand)
        frontier = cand[~expanded[cand]]
    return (
        np.concatenate(newly) if newly else _EMPTY,
        np.concatenate(expanded_now) if expanded_now else _EMPTY,
    )


def open_boundary(
    indptr: np.ndarray, indices: np.ndarray, done: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Per candidate: does it still have a CSR neighbour ``w`` with ``not done[w]``?

    ``candidates`` is a sorted, duplicate-free vertex array; the result is a
    boolean mask parallel to it.  The "still has work next to it" test the
    traversal family runs in ``end_of_timestep`` to pick next-timestep roots:
    ``done`` only grows, so a root at ``t+1`` was a root at ``t`` or became
    done at ``t`` — callers pass ``roots(t) ∪ newly(t)`` and pay for those
    vertices' edge slots, not for the subgraph.
    """
    still_open = np.zeros(len(candidates), dtype=bool)
    slots, src = gather_ranges(indptr, candidates)
    if slots.size:
        still_open[candidates.searchsorted(src[~done[indices[slots]]])] = True
    return still_open
