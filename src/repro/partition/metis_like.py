"""Multilevel k-way partitioner (METIS-style).

The paper partitions its datasets with METIS (k-way, load factor 1.03,
minimizing edge cuts).  METIS is not available offline, so we implement the
same multilevel scheme from scratch:

1. **Coarsening** — repeated heavy-edge matching contracts the graph until it
   is small (vertex weights accumulate so balance is preserved);
2. **Initial partitioning** — greedy graph growing on the coarsest graph
   (the best cut of a few starts), followed by aggressive refinement;
3. **Uncoarsening** — labels are projected back level by level, with Jet
   refinement (see :mod:`repro.partition.refine`) at each level;
4. **One piece per partition** — every piece of a partition but its
   heaviest joins the partition it shares the most edges with, then
   balance and refinement run again, until no piece can join (Choudhury et
   al., arXiv:1508.04265: the subgraph, not the vertex, is TI-BSP's unit of
   work).  Joining a piece never increases the edge cut, because a piece
   has no local edge to the rest of its own partition.  Projection keeps a
   piece in one piece, so this runs on the coarsest level, where pieces are
   cheap to move, and on the finest, where refinement leaves them.

Matching is array work: every vertex proposes to its heaviest unmatched
neighbor (ties broken by a random priority permutation) and mutual
proposals are committed, repeated until the alive slot set is empty — the
classic handshake matching, O(|E|) array work per round and O(log n) rounds.

A coarse vertex weighs at most :data:`_HEAVIEST` times the coarsest graph's
mean, and leaves that a hub cannot take are paired with each other
(METIS's two-hop matching), so balance has a grain to work with on every
level.

This reproduces Table 2's qualitative behaviour: near-zero cuts on road
networks (k one-piece strips on CARN's grid, within a few percent of the
strip cut), large and k-increasing cuts on small-world graphs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import NamedTuple

import numpy as np

from ..graph.template import GraphTemplate
from ..kernels.components import components
from ..kernels.csr import segment_starts, slot_sources
from .base import PartitionedGraph, Partitioner
from .refine import edge_cut_weight, refine
from .subgraphs import decompose

__all__ = [
    "CSR", "MetisLikePartitioner", "coarsen_graph", "heavy_edge_matching", "partition_graph",
]

# Coarsest graphs up to this size get greedy graph-growing initial partitions
# (a scalar loop, but high quality on graphs with region structure); larger
# stalled coarsest graphs start from a balanced random assignment instead.
_GROWING_LIMIT = 8192

# No coarse vertex outweighs this many times the mean weight of the
# coarsest graph's vertices.
_HEAVIEST = 1.5

# Join-balance-refine rounds before the one-piece step stops (a guard: CARN
# at 20k and 200k and WIKI at 100k never need a second).
_JOIN_ROUNDS = 8

# A matching that leaves more than this fraction of the vertex count as
# coarse vertices also pairs leaves (two-hop matching).
_TWO_HOP = 0.7

# Random vertices whose BFS far ends start a greedy growing each; the
# lowest cut is refined.
_GROWING_TRIES = 4

# Stop coarsening when a contraction keeps more than this fraction of the
# edge set: the graph is densifying (small-world regime) and further levels
# repeat the same O(|E|) work without exposing structure.
_NNZ_STALL_RATIO = 0.85


class CSR(NamedTuple):
    """Weighted adjacency of ``len(indptr) - 1`` vertices, columns sorted
    within a row.  The partitioner reads these three attributes and nothing
    else, so a ``scipy.sparse.csr_matrix`` is a valid argument too."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


class _Level(NamedTuple):
    """One level of the multilevel hierarchy."""

    adj: CSR  # symmetric weighted adjacency, zero diagonal
    vertex_weights: np.ndarray
    coarse_map: np.ndarray | None  # finer vertex -> this level's vertex (None at finest)
    slot_src: np.ndarray  # owning row of every slot, for matching, contraction and refine


def _sum_duplicates(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, n: int) -> CSR:
    """CSR of ``n`` vertices from ``(row, col, weight)`` slots, the weights
    of equal ``(row, col)`` summed: one stable sort of the fused key and a
    neighbour compare, not ``np.unique`` (12x a sort on numpy 2.4)."""
    key = rows * n + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = segment_starts(key)
    rows, cols = np.divmod(key[starts], n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CSR(indptr, cols, np.add.reduceat(weights[order], starts))


def _symmetric_weighted_adjacency(template: GraphTemplate) -> CSR:
    """Undirected unit-weight adjacency with multi-edges collapsed."""
    src, dst = template.undirected_edge_view()
    keep = src != dst  # self-loops are irrelevant to cuts
    src, dst = src[keep], dst[keep]
    return _sum_duplicates(
        np.concatenate([src, dst]),
        np.concatenate([dst, src]),
        np.ones(2 * len(src), dtype=np.float64),
        template.num_vertices,
    )


def _matchable(level: _Level, heaviest: float) -> tuple[CSR, np.ndarray]:
    """The level's adjacency and slot sources without the slots whose two
    ends together weigh more than ``heaviest``: a coarse vertex of half a
    partition leaves nothing for balance to move."""
    vw, src = level.vertex_weights, level.slot_src
    if 2 * vw.max() <= heaviest:
        return level.adj, src
    ok = vw[src] + vw[level.adj.indices] <= heaviest
    keep = ok.nonzero()[0]
    indptr = np.zeros(len(vw) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=len(vw)), out=indptr[1:])
    return CSR(indptr, level.adj.indices[keep], level.adj.data[keep]), src[keep]


def _coarse_ids(match: np.ndarray) -> np.ndarray:
    """Assign coarse ids per matched pair / singleton, in fine-vertex order."""
    n = len(match)
    vertices = np.arange(n, dtype=np.int64)
    rep = np.minimum(vertices, match)
    # Representatives are their own rep; numbering them by vertex order is a
    # cumulative count, no sort needed.
    ids = np.cumsum(rep == vertices) - 1
    return ids[rep]


def heavy_edge_matching(
    adj: CSR, rng: np.random.Generator, *, slot_src: np.ndarray | None = None
) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbor.

    Returns ``coarse_map``: fine vertex → coarse vertex id (dense).  Unmatched
    vertices map to singleton coarse vertices.

    Handshake matching in batched propose / mutual-commit rounds: each
    round, every alive vertex proposes to its heaviest alive neighbor
    (ties broken by a random priority permutation, which keeps rounds
    O(log n) even on paths and grids where index-order ties would serialize
    the matching); mutual proposals are matched, then slots touching matched
    vertices are compressed away.  Deterministic in the rng state.

    A slot's weight and tie-break are one int64 key, ``weight * n +
    priority[col]``: a proposal is one ``maximum.reduceat``, its ``% n`` the
    partner's priority.  Weights are integral (edge multiplicities summed by
    contraction, or ``ValueError``), so ``w * n < 2|E| * |V|`` fits.
    """
    n = len(adj.indptr) - 1
    match = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    priority = rng.permutation(n)
    key = adj.data.astype(np.int64)
    if not np.array_equal(key, adj.data):
        raise ValueError("heavy_edge_matching needs integral edge weights")
    key *= n
    key += priority[adj.indices]
    by_priority = np.empty(n, dtype=np.int64)  # key % n -> the proposed vertex
    by_priority[priority] = np.arange(n, dtype=np.int64)
    cur_src = slot_sources(adj.indptr) if slot_src is None else slot_src
    cur_dst = adj.indices
    while len(cur_src):
        # Heaviest alive neighbor per (row-sorted) alive row, ties to the
        # highest priority: the row's max key, whose remainder names it.
        starts = segment_starts(cur_src)
        proposer = cur_src[starts]
        proposed = by_priority[np.maximum.reduceat(key, starts) % n]
        # Commit mutual proposals.
        partner = np.full(n, -1, dtype=np.int64)
        partner[proposer] = proposed
        mutual = (partner[proposed] == proposer) & (proposer < proposed)
        mu, mv = proposer[mutual], proposed[mutual]
        if not len(mu):
            break  # cannot happen with unique priorities; safety stop
        match[mu] = mv
        match[mv] = mu
        free = match == -1
        alive = (free[cur_src] & free[cur_dst]).nonzero()[0]
        cur_src, cur_dst, key = cur_src[alive], cur_dst[alive], key[alive]
    unmatched = np.nonzero(match == -1)[0]
    match[unmatched] = unmatched  # singletons
    return _coarse_ids(match)


def coarsen_graph(
    adj: CSR,
    vertex_weights: np.ndarray,
    coarse_map: np.ndarray,
    *,
    slot_src: np.ndarray | None = None,
) -> tuple[CSR, np.ndarray]:
    """Contract a graph along ``coarse_map`` (sums edge and vertex weights).

    Direct segment-reduction contraction: map every stored slot to a coarse
    ``(row, col)``, drop the diagonal, and sum the duplicates
    (:func:`_sum_duplicates`) — no sparse matmul, no ``setdiag`` pass.
    """
    nc = int(coarse_map.max()) + 1 if len(coarse_map) else 0
    rows = coarse_map[slot_sources(adj.indptr) if slot_src is None else slot_src]
    cols = coarse_map[adj.indices]
    off_diag = (rows != cols).nonzero()[0]
    coarse = _sum_duplicates(rows[off_diag], cols[off_diag], adj.data[off_diag], nc)
    cw = np.bincount(coarse_map, weights=vertex_weights, minlength=nc)
    return coarse, cw


def _far_vertex(indptr: list, indices: list, start: int) -> int:
    """The last vertex a BFS from ``start`` reaches: one end of a long
    shortest path (a pseudo-peripheral vertex after one sweep)."""
    seen = {start}
    queue = deque([start])
    last = start
    while queue:
        last = queue.popleft()
        for v in indices[indptr[last] : indptr[last + 1]]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return last


def _grow_regions(adj: CSR, vertex_weights: np.ndarray, k: int, start: int) -> np.ndarray:
    """Greedy graph growing: region 0 grows from ``start``, each later one
    from the unassigned vertex most attached to the regions before it, and
    a region adds its highest-gain frontier vertex (weight into the region
    minus weight to unassigned vertices) until it holds its share of the
    weight that is left."""
    n = len(vertex_weights)
    indptr, indices, data = adj.indptr.tolist(), adj.indices.tolist(), adj.data.tolist()
    vw = vertex_weights.tolist()
    part = [-1] * n
    loose = [0.0] * n  # weight to unassigned vertices
    for u in range(n):
        loose[u] = sum(data[indptr[u] : indptr[u + 1]])
    attached = [0.0] * n  # weight to assigned vertices
    left = float(vertex_weights.sum())
    seed = start
    for p in range(k - 1):
        share = left / (k - p)
        inside = {}  # frontier vertex -> weight into this region
        heap = [(-0.0, seed)]
        grown = 0.0
        while grown < share:
            if not heap:  # the region's component is used up: jump
                rest = [v for v in range(n) if part[v] == -1]
                if not rest:
                    break
                heap.append((0.0, max(rest, key=lambda v: (attached[v] - loose[v], -v))))
            _, u = heapq.heappop(heap)
            if part[u] != -1:
                continue
            if grown + vw[u] / 2 > share:
                break
            part[u] = p
            grown += vw[u]
            for j in range(indptr[u], indptr[u + 1]):
                v, w = indices[j], data[j]
                loose[v] -= w
                attached[v] += w
                if part[v] == -1:
                    inside[v] = inside.get(v, 0.0) + w
                    heapq.heappush(heap, (loose[v] - inside[v], v))
        left -= grown
        rest = [v for v in range(n) if part[v] == -1]
        if not rest:
            break
        seed = max(rest, key=lambda v: (attached[v] - loose[v], -v))
    out = np.asarray(part, dtype=np.int64)
    out[out == -1] = k - 1
    return out


def _pair_leaves(level: _Level, coarse_map: np.ndarray, heaviest: float) -> np.ndarray:
    """Put two unmatched leaves of one neighbour into one coarse vertex.

    A hub matches one of its leaves per level, so a hub with many (or one
    too heavy to match at all) stalls coarsening; pairing them is METIS's
    two-hop matching, under the same weight ceiling as the matching.
    Coarse ids stay dense and in first-vertex order.
    """
    adj = level.adj
    alone = np.bincount(coarse_map)[coarse_map] == 1
    light = level.vertex_weights <= heaviest / 2
    leaves = np.flatnonzero(alone & light & (np.diff(adj.indptr) == 1))
    hubs = adj.indices[adj.indptr[leaves]]
    order = np.argsort(hubs, kind="stable")
    leaves, hubs = leaves[order], hubs[order]
    starts = segment_starts(hubs)
    rank = np.arange(len(hubs)) - starts.repeat(np.diff(np.append(starts, len(hubs))))
    second = np.flatnonzero(rank % 2 == 1)  # each joins the leaf before it
    if not len(second):
        return coarse_map
    coarse_map = coarse_map.copy()
    coarse_map[leaves[second]] = coarse_map[leaves[second - 1]]
    used = np.zeros(int(coarse_map.max()) + 1, dtype=bool)
    used[coarse_map] = True
    return (np.cumsum(used) - 1)[coarse_map]


def _initial_partition(
    adj: CSR, vertex_weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Best cut of a few greedy growings, each from the far end of a BFS
    from a random vertex (on a long graph most share one of its two ends)."""
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    n = len(vertex_weights)
    roots = rng.choice(n, size=min(_GROWING_TRIES, n), replace=False)
    best, best_cut = None, np.inf
    for start in sorted({_far_vertex(indptr, indices, int(r)) for r in roots}):
        assignment = _grow_regions(adj, vertex_weights, k, start)
        cut = edge_cut_weight(*adj, assignment)
        if cut < best_cut:
            best, best_cut = assignment, cut
    return best


def _join_stray_pieces(level: _Level, assignment: np.ndarray, k: int) -> np.ndarray | None:
    """Each partition's pieces (components over its local edges) other than
    its heaviest join the partition they share the most edge weight with.

    Only edges into kept pieces count, so two stray pieces never trade
    places.  Returns ``None`` when no piece can move: every partition is
    one piece, or its others touch no other partition.
    """
    indices, data = level.adj.indices, level.adj.data
    src = level.slot_src
    local = assignment[src] == assignment[indices]
    once = (local & (src < indices)).nonzero()[0]  # each local edge in one direction
    count, piece = components(len(assignment), src[once], indices[once])
    if count <= k:
        return None
    piece_w = np.bincount(piece, weights=level.vertex_weights, minlength=count)
    piece_part = np.empty(count, dtype=np.int64)
    piece_part[piece] = assignment
    by_part = np.lexsort((-piece_w, piece_part))  # heaviest first in each partition
    stray = np.ones(count, dtype=bool)
    stray[by_part[segment_starts(piece_part[by_part])]] = False
    out = (~local & stray[piece[src]] & ~stray[piece[indices]]).nonzero()[0]
    conn = np.bincount(
        piece[src[out]] * k + assignment[indices[out]], weights=data[out], minlength=count * k
    ).reshape(count, k)
    dest = conn.argmax(axis=1)
    joins = stray & (conn[np.arange(count), dest] > 0)
    if not joins.any():
        return None
    return np.where(joins[piece], dest[piece], assignment)


class MetisLikePartitioner:
    """Multilevel k-way partitioner with METIS's defaults (imbalance 1.03).

    Parameters
    ----------
    seed:
        RNG seed (matching order, region seeds).
    imbalance:
        Allowed vertex-weight imbalance factor.
    coarsen_until:
        Stop coarsening once the graph has at most ``max(coarsen_until,
        30 * k)`` vertices.
    refine_passes:
        Refinement passes without a new best cut before a level is done.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        imbalance: float = 1.03,
        coarsen_until: int = 200,
        refine_passes: int = 2,
    ) -> None:
        self.seed = int(seed)
        self.imbalance = float(imbalance)
        self.coarsen_until = int(coarsen_until)
        self.refine_passes = int(refine_passes)

    def assign(self, template: GraphTemplate, num_partitions: int) -> np.ndarray:
        k = num_partitions
        if k <= 0:
            raise ValueError("num_partitions must be positive")
        n = template.num_vertices
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if k == 1:
            return np.zeros(n, dtype=np.int64)
        if k >= n:
            return np.arange(n, dtype=np.int64) % k

        rng = np.random.default_rng(self.seed)
        adj = _symmetric_weighted_adjacency(template)
        levels = [_Level(adj, np.ones(n, dtype=np.float64), None, slot_sources(adj.indptr))]

        # ---- coarsening phase -------------------------------------------------
        target = max(self.coarsen_until, 30 * k)
        heaviest = _HEAVIEST * n / target
        while len(levels[-1].vertex_weights) > target:
            top = levels[-1]
            matchable, matchable_src = _matchable(top, heaviest)
            coarse_map = heavy_edge_matching(matchable, rng, slot_src=matchable_src)
            if coarse_map.max() + 1 > _TWO_HOP * len(coarse_map):
                coarse_map = _pair_leaves(top, coarse_map, heaviest)
            nc = int(coarse_map.max()) + 1
            if nc > 0.95 * len(coarse_map):
                break  # matching stalled (e.g. star graphs); stop coarsening
            cadj, cw = coarsen_graph(top.adj, top.vertex_weights, coarse_map, slot_src=top.slot_src)
            levels.append(_Level(cadj, cw, coarse_map, slot_sources(cadj.indptr)))
            if len(cadj.indices) > _NNZ_STALL_RATIO * len(top.adj.indices):
                # Contraction stopped shrinking the edge set (small-world
                # graphs densify as they coarsen): further levels repeat the
                # same O(|E|) work without exposing structure.
                break

        # ---- initial partition on the coarsest graph ---------------------------
        coarsest = levels[-1]
        nc0 = len(coarsest.vertex_weights)
        if nc0 > _GROWING_LIMIT:
            # Densification-stalled coarsest graph (no region structure for
            # growing to find, and too large for its scalar loop): balanced
            # random start; refinement, which runs on while its passes gain
            # 1 %, does the actual partitioning work.
            assignment = rng.permutation(nc0).astype(np.int64) % k
            passes = self.refine_passes
        else:
            assignment = _initial_partition(coarsest.adj, coarsest.vertex_weights, k, rng)
            passes = max(self.refine_passes * 2, 8)

        # ---- uncoarsening: refine each level, coarsest first, project down ---
        # One piece per partition (arXiv:1508.04265): TI-BSP schedules
        # subgraphs, and every piece of a partition is one.  Projection keeps
        # a piece in one piece, so pieces are joined where they are cheapest,
        # on the coarsest level (balanced only: the next level refines), and
        # where the refinement leaves them, on the finest.
        level = levels.pop()  # freed once the finer level holds its labels
        assignment = self._one_piece(level, self._refine(level, assignment, k, passes), k, 0)
        while level.coarse_map is not None:
            assignment = assignment[level.coarse_map]
            level = levels.pop()
            assignment = self._refine(level, assignment, k, self.refine_passes)
        return self._one_piece(level, assignment, k, self.refine_passes)

    def _one_piece(self, level: _Level, assignment: np.ndarray, k: int, passes: int) -> np.ndarray:
        """Join stray pieces, then balance and refine, until none can join."""
        for _ in range(_JOIN_ROUNDS):
            joined = _join_stray_pieces(level, assignment, k)
            if joined is None:
                break
            assignment = self._refine(level, joined, k, passes)
        return assignment

    def _refine(self, level: _Level, assignment: np.ndarray, k: int, passes: int) -> np.ndarray:
        # A coarse level's cap is loose by a mean vertex per partition:
        # balance to the grain the level has, and tighten as it refines.
        vw = level.vertex_weights
        slack = k / len(vw) if level.coarse_map is not None else 0.0
        return refine(
            *level.adj,
            vw,
            assignment,
            k,
            imbalance=self.imbalance + slack,
            passes=passes,
            slot_src=level.slot_src,
        )


def partition_graph(
    template: GraphTemplate, num_partitions: int, partitioner: Partitioner | None = None
) -> PartitionedGraph:
    """One-call convenience: assign vertices and decompose into subgraphs.

    Uses :class:`MetisLikePartitioner` when no partitioner is given, matching
    the paper's METIS setup.
    """
    partitioner = partitioner or MetisLikePartitioner()
    assignment = np.asarray(partitioner.assign(template, num_partitions))
    return decompose(template, assignment, num_partitions)
