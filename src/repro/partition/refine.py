"""Boundary refinement (Kernighan–Lin / Fiduccia–Mattheyses style).

Operates on a weighted symmetric CSR graph: per pass it computes, for every
vertex, its connectivity to each partition, then greedily moves
positive-gain boundary vertices subject to a balance cap.  A pass that fails
to reduce the cut is reverted, so refinement never worsens a partitioning.
Used at every level of the multilevel partitioner and directly on fine
graphs.

All per-pass work is segment-reduction form: connectivity is one flat
``np.bincount`` over ``slot_src * k + assignment[indices]`` (much faster
than an ``np.add.at`` scatter), and the ``slot_src`` expansion of the CSR
row pointer — the one O(|slots|) allocation everything shares — is passed
in (``slot_src=``, one per multilevel level) or computed once per call, and
threaded through every cut/connectivity evaluation, never rebuilt per pass.
"""

from __future__ import annotations

import numpy as np

from ..kernels.csr import segment_starts, slot_sources, sorted_unique

__all__ = ["partition_connectivity", "edge_cut_weight", "rebalance", "refine"]

# Mover sets larger than this are applied in bulk (per-target gain-ordered
# cumulative-weight admission) instead of the exact sequential loop.
_BULK_MOVE_LIMIT = 1024

# A refinement pass gathers boundary-row slots only when the cut fraction is
# below this; above it most rows are boundary rows and the one-shot full
# bincount over all slots is cheaper than the gather.
_BOUNDARY_PATH_CUT_FRACTION = 0.15


def partition_connectivity(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    assignment: np.ndarray,
    k: int,
    *,
    slot_src: np.ndarray | None = None,
) -> np.ndarray:
    """``C[v, p]`` = total weight of edges from ``v`` into partition ``p``.

    Pass a precomputed ``slot_src`` (see :func:`refine`) to skip the repeat
    expansion when calling repeatedly on one graph.
    """
    n = len(indptr) - 1
    if slot_src is None:
        slot_src = slot_sources(indptr)
    flat = np.bincount(
        slot_src * k + assignment[indices], weights=weights, minlength=n * k
    )
    # ``bincount`` of no slots is int64 whatever the weights' dtype, and
    # callers mask entries with ``-inf``.
    return flat.reshape(n, k).astype(np.float64, copy=False)


def edge_cut_weight(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    assignment: np.ndarray,
    *,
    slot_src: np.ndarray | None = None,
) -> float:
    """Total weight of cut edges (symmetric adjacency ⇒ halve the slot sum)."""
    if slot_src is None:
        slot_src = slot_sources(indptr)
    cut_slots = assignment[slot_src] != assignment[indices]
    return float(weights[cut_slots].sum() / 2.0)


def _partition_sizes(vertex_weights: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    return np.bincount(assignment, weights=vertex_weights, minlength=k)


def rebalance(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vertex_weights: np.ndarray,
    assignment: np.ndarray,
    k: int,
    cap: float,
    *,
    slot_src: np.ndarray | None = None,
) -> np.ndarray:
    """Move vertices out of over-capacity partitions (least cut damage first).

    Returns a (possibly modified) copy of ``assignment`` where every
    partition's vertex-weight total is ≤ ``cap`` whenever that is achievable
    by single-vertex moves.
    """
    assignment = assignment.copy()
    sizes = _partition_sizes(vertex_weights, assignment, k)
    if np.all(sizes <= cap):
        return assignment
    conn = partition_connectivity(indptr, indices, weights, assignment, k, slot_src=slot_src)
    for pid in range(k):
        guard = 0
        while sizes[pid] > cap and guard < len(assignment):
            guard += 1
            members = np.nonzero(assignment == pid)[0]
            if len(members) <= 1:
                break
            # Gain of each member toward its best alternative partition.
            alt_conn = conn[members].copy()
            alt_conn[:, pid] = -np.inf
            # Disallow targets that are themselves (nearly) full.
            full = sizes + vertex_weights[members, None] > cap
            alt_conn[full] = -np.inf
            best_alt = np.argmax(alt_conn, axis=1)
            gains = alt_conn[np.arange(len(members)), best_alt] - conn[members, pid]
            if not np.isfinite(gains).any():
                break
            pick = int(np.argmax(gains))
            v, target = int(members[pick]), int(best_alt[pick])
            sizes[pid] -= vertex_weights[v]
            sizes[target] += vertex_weights[v]
            assignment[v] = target
            # Update neighbors' connectivity rows incrementally.
            nbrs = indices[indptr[v] : indptr[v + 1]]
            wts = weights[indptr[v] : indptr[v + 1]]
            np.add.at(conn, (nbrs, np.full(len(nbrs), pid)), -wts)
            np.add.at(conn, (nbrs, np.full(len(nbrs), target)), wts)
    return assignment


def refine(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vertex_weights: np.ndarray,
    assignment: np.ndarray,
    k: int,
    *,
    imbalance: float = 1.03,
    passes: int = 4,
    slot_src: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy FM refinement: repeat gain-ordered boundary moves until stable.

    Each pass gathers the adjacency slots of the *boundary* vertices (those
    with at least one cut edge — the only candidates for a positive gain),
    computes their partition-connectivity snapshot with one flat bincount,
    applies moves in descending-gain order with live balance checks, and is
    reverted entirely if it did not reduce the cut (snapshot staleness can
    rarely cause that).

    Balance caveat: an input that violates the ``imbalance`` cap is first
    forced feasible by :func:`rebalance`, which may *increase* the cut —
    balance is a hard constraint, cut a soft objective.  The never-worse
    guarantee therefore holds relative to the rebalanced assignment (equal
    to the input whenever the input is already feasible).
    """
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    total_w = float(vertex_weights.sum())
    cap = imbalance * total_w / k if total_w else 0.0
    slot_src = slot_sources(indptr) if slot_src is None else slot_src
    assignment = rebalance(
        indptr, indices, weights, vertex_weights, assignment, k, cap, slot_src=slot_src
    )
    cut_slots = assignment[slot_src] != assignment[indices]
    best_cut = float(weights[cut_slots].sum() / 2.0)

    n = len(indptr) - 1
    for _ in range(passes):
        if not cut_slots.any():
            break
        if np.count_nonzero(cut_slots) < _BOUNDARY_PATH_CUT_FRACTION * len(cut_slots):
            # Only boundary vertices (≥1 cut slot) can have a positive gain,
            # so gather their adjacency slots and build connectivity rows for
            # them alone — on well-cut graphs (road networks) a pass touches
            # a few percent of the slots instead of all of them.
            boundary = sorted_unique(slot_src[cut_slots])
            counts = indptr[boundary + 1] - indptr[boundary]
            total = int(counts.sum())
            slots = np.repeat(indptr[boundary] - np.cumsum(counts) + counts, counts)
            slots += np.arange(total, dtype=np.int64)
            rows = np.repeat(np.arange(len(boundary), dtype=np.int64), counts)
            conn = np.bincount(
                rows * k + assignment[indices[slots]],
                weights=weights[slots],
                minlength=len(boundary) * k,
            ).reshape(len(boundary), k)
        else:
            # Dense boundary (small-world regime): one flat bincount over
            # every slot beats gathering most of them.
            boundary = np.arange(n, dtype=np.int64)
            conn = partition_connectivity(
                indptr, indices, weights, assignment, k, slot_src=slot_src
            )
        ar = np.arange(len(boundary))
        own = assignment[boundary]
        current = conn[ar, own]
        conn[ar, own] = -np.inf
        target = np.argmax(conn, axis=1)
        gain = conn[ar, target] - current
        movers = np.nonzero(gain > 0)[0]
        if len(movers) == 0:
            break
        order = movers[np.argsort(-gain[movers], kind="stable")]

        trial = assignment.copy()
        sizes = _partition_sizes(vertex_weights, trial, k)
        if len(order) > _BULK_MOVE_LIMIT:
            # Bulk admission: per target partition, admit movers in gain
            # order while the cumulative admitted weight fits under the cap.
            # Conservative vs the sequential loop (capacity freed by movers
            # leaving a partition is only seen next pass), but O(m log m).
            mv = boundary[order]
            mt = target[order]
            mw = vertex_weights[mv]
            by_target = np.lexsort((-gain[order], mt))
            mv, mt, mw = mv[by_target], mt[by_target], mw[by_target]
            starts = segment_starts(mt)
            counts = np.diff(np.append(starts, len(mt)))
            running = np.cumsum(mw)
            group_base = np.repeat(running[starts] - mw[starts], counts)
            admit = sizes[mt] + (running - group_base) <= cap
            trial[mv[admit]] = mt[admit]
            moved = int(admit.sum())
        else:
            moved = 0
            for i in order:
                v = int(boundary[i])
                t = int(target[i])
                if sizes[t] + vertex_weights[v] > cap:
                    continue
                sizes[trial[v]] -= vertex_weights[v]
                sizes[t] += vertex_weights[v]
                trial[v] = t
                moved += 1
        if moved == 0:
            break
        new_cut_slots = trial[slot_src] != trial[indices]
        new_cut = float(weights[new_cut_slots].sum() / 2.0)
        if new_cut < best_cut:
            assignment, best_cut, cut_slots = trial, new_cut, new_cut_slots
        else:
            break  # stale-gain pass made things worse; keep the best seen
    return assignment
