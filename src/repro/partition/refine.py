"""Boundary refinement: Jet-style hill-climbing on a weighted symmetric CSR graph.

Jet (Gilbert, Madduri, Boman & Rajamanickam, "Jet: Multilevel Graph
Partitioning on GPUs") refines with data-parallel moves; here every step is
a sort, a gather or a ``bincount``:

1. *Proposals.*  Every boundary vertex (one with weight into another
   partition) names its best-connected other partition, also when that
   loses a little — down to :data:`_NEGATIVE_GAIN` of its own-partition
   weight — which is what lets a pass walk out of a local minimum.  A
   vertex that moved in the previous pass sits this one out.
2. *Afterburner.*  Proposals are ranked by gain; each is re-scored assuming
   every higher-ranked proposal next to it has moved, and only those still
   positive move.
3. *Balance.*  A pass that leaves a partition over the cap is followed by
   :func:`_balance`, which moves the cheapest boundary vertices out of it.
4. *Best so far.*  The balanced assignment with the lowest cut is kept
   across passes; refinement stops after ``passes`` passes in a row that
   gain less than :data:`_PROGRESS` asks.

The state is incremental (:class:`_Refinement`): the connectivity rows
``C[v, p]`` are built once per call with one flat ``bincount`` and then
updated from the movers' adjacency slots only, and the cut moves by those
slots' deltas — no full-slot recount per pass.
"""

from __future__ import annotations

import numpy as np

from ..kernels.csr import gather_ranges, segment_starts, slot_sources

__all__ = ["partition_connectivity", "edge_cut_weight", "refine"]

# A boundary vertex proposes a move that loses at most this fraction of its
# weight into its own partition (Jet's ``c``).
_NEGATIVE_GAIN = 0.25

# A pass restarts the patience count when its cut is below this fraction of
# the cut the count last restarted at (or it is less over the cap).
_PROGRESS = 0.99


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


class _Refinement:
    """An assignment with its connectivity rows, partition weights and cut,
    kept current across moves."""

    def __init__(self, indptr, indices, weights, vertex_weights, assignment, k, slot_src):
        self.indptr, self.indices, self.weights, self.k = indptr, indices, weights, k
        self.vertex_weights = vertex_weights
        self.assignment = np.array(assignment, dtype=np.int64)
        self.conn = partition_connectivity(
            indptr, indices, weights, self.assignment, k, slot_src=slot_src
        )
        n = len(self.assignment)
        own = self.conn.reshape(-1)[np.arange(0, n * k, k) + self.assignment]
        self.degree = self.conn @ np.ones(k)
        self.external = self.degree - own  # > 0 exactly on the boundary
        self.cut = float(self.external.sum() / 2.0)
        self.sizes = np.bincount(self.assignment, weights=vertex_weights, minlength=k)
        self.moving = np.zeros(n, dtype=bool)
        self.rank = np.full(n, n, dtype=np.int64)

    def boundary(self) -> np.ndarray:
        return np.flatnonzero(self.external > 0)

    def move(self, verts: np.ndarray, dest: np.ndarray) -> None:
        """Move ``verts[i]`` to ``dest[i]``, updating rows, sizes and cut
        from the movers' slots alone."""
        a, k = self.assignment, self.k
        slots, src = gather_ranges(self.indptr, verts)
        nbr, w = self.indices[slots], self.weights[slots]
        old, was = a[verts], a[src]
        was_cut = was != a[nbr]
        a[verts] = dest
        now = a[src]
        delta = w * ((now != a[nbr]).astype(np.float64) - was_cut)
        # A slot between two movers is seen from both ends.
        self.moving[verts] = True
        self.cut += float(delta.sum() - 0.5 * delta[self.moving[nbr]].sum())
        self.moving[verts] = False
        flat = self.conn.reshape(-1)
        np.subtract.at(flat, nbr * k + was, w)
        np.add.at(flat, nbr * k + now, w)
        vw = self.vertex_weights[verts]
        np.subtract.at(self.sizes, old, vw)
        np.add.at(self.sizes, dest, vw)
        touched = np.concatenate([verts, nbr])
        self.external[touched] = self.degree[touched] - self.conn[touched, a[touched]]

    def propose(self, locked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One Jet pass's moves: proposals, then the afterburner."""
        a = self.assignment
        verts = self.boundary()
        verts = verts[~locked[verts]]
        rows = self.conn[verts]
        ar = np.arange(len(verts))
        own = a[verts]
        own_w = rows[ar, own]
        rows[ar, own] = -np.inf
        dest = rows.argmax(axis=1)
        gain = rows[ar, dest] - own_w
        keep = (gain >= 0) | (-gain < np.floor(_NEGATIVE_GAIN * own_w))
        verts, dest, gain = verts[keep], dest[keep], gain[keep]
        order = np.argsort(-gain, kind="stable")  # best gain first, ties to the lower id
        verts, dest = verts[order], dest[order]
        if not len(verts):
            return verts, dest
        # Afterburner: a neighbour ranked above the mover counts at its
        # destination, every other neighbour where it is.
        self.rank[verts] = np.arange(len(verts))
        slots, src = gather_ranges(self.indptr, verts)
        nbr = self.indices[slots]
        pos, above = self.rank[src], self.rank[nbr]
        self.rank[verts] = len(a)
        ahead = above < pos
        where = a[nbr]
        where[ahead] = dest[above[ahead]]
        score = (where == dest[pos]).astype(np.float64) - (where == a[src])
        gain = np.bincount(pos, weights=self.weights[slots] * score, minlength=len(verts))
        moves = gain > 0
        return verts[moves], dest[moves]


def _running(weights: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Running sum of ``weights``, restarted where the sorted ``keys`` change."""
    starts = segment_starts(keys)
    running = weights.cumsum()
    running -= (running[starts] - weights[starts]).repeat(np.diff(np.append(starts, len(keys))))
    return running


def _admit(weights: np.ndarray, bucket: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """Which items, taken in the given order, fit their bucket's budget:
    the running weight per bucket must stay within ``budget[bucket]``."""
    by_bucket = np.argsort(bucket, kind="stable")
    b = bucket[by_bucket]
    fits = np.empty(len(b), dtype=bool)
    fits[by_bucket] = _running(weights[by_bucket], b) <= budget[b]
    return fits


def _hops_to_room(state: _Refinement, boundary: np.ndarray, room: np.ndarray) -> np.ndarray:
    """Per partition, the fewest partition-to-partition steps to one with
    ``room`` (``k`` when none is reachable)."""
    k = state.k
    member = np.zeros((len(boundary), k))
    member[np.arange(len(boundary)), state.assignment[boundary]] = 1.0
    touches = member.T @ state.conn[boundary] > 0
    hops = np.where(room, 0, k)
    for step in range(1, k):
        reached = touches[:, hops == step - 1].any(axis=1) & (hops == k)
        if not reached.any():
            break
        hops[reached] = step
    return hops


def _balance(state: _Refinement, cap: float) -> None:
    """Bring every partition to at most ``cap``, least cut damage first.

    Rounds until nothing is over the cap or a hand-on stalls.  Per round,
    every over-cap partition moves boundary vertices, cheapest first
    (own-partition weight minus weight to the destination), until its
    excess is covered.  A partition next to one with room moves into it, as
    much as the room takes.  One that meets no room moves downhill in
    :func:`_hops_to_room`, into a neighbour one step closer to room, which
    passes it on next round; one that reaches no room at all (it holds
    whole components) hands its least-connected members to the lightest
    partition.
    """
    a, k = state.assignment, state.k
    least, stalled = np.inf, 0
    while stalled < k:  # a hand-on lasts at most k - 1 rounds
        excess = state.sizes - cap
        over = excess > 0
        if not over.any():
            return
        least, stalled = (excess[over].sum(), 0) if excess[over].sum() < least else (least, stalled + 1)
        boundary = state.boundary()
        leaving = boundary[over[a[boundary]]]
        # Room is room for the lightest vertex that could leave.
        grain = state.vertex_weights[leaving].min() if len(leaving) else 0.0
        room = state.sizes + grain <= cap
        hops = np.where(room, 0, 1)
        verts, dest, loss = _downhill(state, leaving, hops)
        stuck = over.copy()
        stuck[a[verts]] = False
        if stuck.any():
            hops = _hops_to_room(state, boundary, room)
            more = [_downhill(state, boundary[stuck[a[boundary]] & (hops[a[boundary]] < k)], hops)]
            for p in np.flatnonzero(stuck & (hops == k)):
                members = np.flatnonzero(a == p)
                to = int(np.argmin(np.where(np.arange(k) == p, np.inf, state.sizes)))
                conn = state.conn[members]
                more.append((members, np.full(len(members), to), conn[:, p] - conn[:, to]))
            verts, dest, loss = (np.concatenate(x) for x in zip((verts, dest, loss), *more))
        # A destination with room takes up to its room, or, when vertices
        # are coarser than the room, up to half its gap to the source; one on
        # the way to room takes what it is handed.
        sizes = state.sizes
        budget = np.maximum(cap - sizes, (sizes[:, None] - sizes) / 2.0)
        budget[:, (hops > 0) & (hops < k)] = np.inf
        if not _shed(state, verts, dest, loss, excess, budget):
            return


def _downhill(state: _Refinement, verts: np.ndarray, hops: np.ndarray):
    """Each of ``verts`` with its best-connected partition fewer ``hops``
    from room, and the cut that move costs; those with none are dropped."""
    rows = state.conn[verts]
    ar = np.arange(len(verts))
    own = state.assignment[verts]
    own_w = rows[ar, own]
    rows[hops >= hops[own, None]] = -np.inf
    dest = rows.argmax(axis=1)
    dest_w = rows[ar, dest]
    usable = dest_w > 0
    return verts[usable], dest[usable], (own_w - dest_w)[usable]


def _shed(state: _Refinement, verts, dest, loss, excess, budget) -> bool:
    """Move the cheapest of ``verts`` out of each partition until its
    ``excess`` is covered, within ``budget[source, destination]``."""
    vw = state.vertex_weights[verts]
    source = state.assignment[verts]
    keep = vw <= budget[source, dest]
    verts, dest, loss, vw, source = verts[keep], dest[keep], loss[keep], vw[keep], source[keep]
    # Source-major, cheapest first: one sort of a fused key (|loss| is at
    # most the heaviest weighted degree, so ``span`` keeps sources apart).
    span = 2.0 * float(np.abs(loss).max(initial=0.0)) + 1.0
    order = np.argsort(source * span + loss, kind="stable")
    verts, dest, source, vw = verts[order], dest[order], source[order], vw[order]
    take = _running(vw, source) - vw < excess[source]
    verts, dest, vw, pair = verts[take], dest[take], vw[take], source[take] * state.k + dest[take]
    fits = _admit(vw, pair, budget.reshape(-1))
    if not fits.any():
        return False
    state.move(verts[fits], dest[fits])
    return True


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
    """Jet refinement: hill-climb the cut under the balance cap, keeping the
    best balanced assignment seen; stop after ``passes`` passes in a row
    that gain less than 1 %.

    Balance caveat: an input that violates the ``imbalance`` cap is first
    forced feasible by :func:`_balance`, which may *increase* the cut —
    balance is a hard constraint, cut a soft objective.  The never-worse
    guarantee therefore holds relative to the rebalanced assignment (equal
    to the input whenever the input is already feasible).  When no
    sequence of single-vertex moves reaches the cap, the least-overweight
    assignment wins.
    """
    total_w = float(vertex_weights.sum())
    cap = imbalance * total_w / k if total_w else 0.0
    state = _Refinement(
        indptr, indices, weights, vertex_weights, assignment, k,
        slot_sources(indptr) if slot_src is None else slot_src,
    )
    _balance(state, cap)

    def score() -> tuple[float, float]:
        return max(float(state.sizes.max()) - cap, 0.0), state.cut

    best, best_score = state.assignment.copy(), score()
    mark = best_score  # the score the patience count last restarted at
    locked = np.zeros(len(best), dtype=bool)
    stale = 0
    while stale < passes:
        verts, dest = state.propose(locked)
        if not len(verts):
            break
        state.move(verts, dest)
        locked[:] = False
        locked[verts] = True
        _balance(state, cap)
        now = score()
        if now < best_score:
            best, best_score = state.assignment.copy(), now
        if now[0] < mark[0] or (now[0] == mark[0] and now[1] < _PROGRESS * mark[1]):
            mark, stale = now, 0
        else:
            stale += 1
    return best
