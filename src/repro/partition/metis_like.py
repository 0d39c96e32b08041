"""Multilevel k-way partitioner (METIS-style).

The paper partitions its datasets with METIS (k-way, load factor 1.03,
minimizing edge cuts).  METIS is not available offline, so we implement the
same multilevel scheme from scratch:

1. **Coarsening** — repeated heavy-edge matching contracts the graph until it
   is small (vertex weights accumulate so balance is preserved);
2. **Initial partitioning** — balanced BFS region growing on the coarsest
   graph, followed by aggressive FM refinement;
3. **Uncoarsening** — labels are projected back level by level, with boundary
   FM refinement (see :mod:`repro.partition.refine`) at each level;
4. **Subgraph consolidation** — a final pass that folds small fragment
   subgraphs into the partition they are most connected to, balancing
   *subgraph* count and size across partitions (Choudhury et al.,
   arXiv:1508.04265: the subgraph, not the vertex, is TI-BSP's unit of
   work).  Moving a whole subgraph never increases the edge cut, because a
   subgraph has no local edges to the rest of its own partition.

Matching is array work: every vertex proposes to its heaviest unmatched
neighbor (ties broken by a random priority permutation) and mutual
proposals are committed, repeated until the alive slot set is empty — the
classic handshake matching, O(|E|) array work per round and O(log n) rounds.

This reproduces Table 2's qualitative behaviour: near-zero cuts on road
networks, large and k-increasing cuts on small-world graphs.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from ..graph.template import GraphTemplate
from ..kernels.csr import segment_starts, slot_sources
from .refine import edge_cut_weight, refine

__all__ = ["CSR", "MetisLikePartitioner", "coarsen_graph", "heavy_edge_matching"]

# Coarsest graphs up to this size get BFS region-growing initial partitions
# (a scalar loop, but high quality on graphs with region structure); larger
# stalled coarsest graphs start from a balanced random assignment instead.
_BFS_INIT_LIMIT = 8192

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


def _initial_partition(
    adj: CSR, vertex_weights: np.ndarray, k: int, rng: np.random.Generator, cap: float
) -> np.ndarray:
    """Balanced weighted BFS region growing on the coarsest graph."""
    n = len(adj.indptr) - 1
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.float64)
    indptr, indices = adj.indptr, adj.indices
    seeds = rng.choice(n, size=min(k, n), replace=False)
    frontiers = [deque() for _ in range(k)]
    for pid, s in enumerate(seeds):
        assignment[s] = pid
        sizes[pid] += vertex_weights[s]
        frontiers[pid].append(int(s))
    progress = True
    while progress:
        progress = False
        for pid in np.argsort(sizes, kind="stable"):
            pid = int(pid)
            q = frontiers[pid]
            while q:
                u = q.popleft()
                attached = False
                for v in indices[indptr[u] : indptr[u + 1]]:
                    v = int(v)
                    if assignment[v] == -1 and sizes[pid] + vertex_weights[v] <= cap:
                        assignment[v] = pid
                        sizes[pid] += vertex_weights[v]
                        q.append(v)
                        attached = True
                        progress = True
                if attached:
                    break  # yield to the next-smallest region
    for v in np.nonzero(assignment == -1)[0]:
        pid = int(np.argmin(sizes))
        assignment[v] = pid
        sizes[pid] += vertex_weights[v]
    return assignment


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
        FM passes applied per uncoarsening level.
    subgraph_aware:
        Run the final fragment-consolidation pass balancing subgraph count
        and size across partitions (never increases the edge cut).
    fragment_fraction:
        A subgraph is a movable *fragment* when its vertex weight is at most
        this fraction of the ideal partition weight.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        imbalance: float = 1.03,
        coarsen_until: int = 200,
        refine_passes: int = 4,
        subgraph_aware: bool = True,
        fragment_fraction: float = 0.1,
    ) -> None:
        self.seed = int(seed)
        self.imbalance = float(imbalance)
        self.coarsen_until = int(coarsen_until)
        self.refine_passes = int(refine_passes)
        self.subgraph_aware = bool(subgraph_aware)
        self.fragment_fraction = float(fragment_fraction)

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
        while len(levels[-1].vertex_weights) > target:
            top = levels[-1]
            coarse_map = heavy_edge_matching(top.adj, rng, slot_src=top.slot_src)
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
        total_w = float(coarsest.vertex_weights.sum())
        cap = self.imbalance * total_w / k
        if nc0 > _BFS_INIT_LIMIT:
            # Densification-stalled coarsest graph (no region structure for
            # BFS growing to find, and too large for its scalar loop):
            # balanced random start; rebalance + extra FM passes in refine
            # do the actual partitioning work.
            assignment = rng.permutation(nc0).astype(np.int64) % k
            passes = self.refine_passes * 4
        else:
            assignment = _initial_partition(coarsest.adj, coarsest.vertex_weights, k, rng, cap)
            passes = max(self.refine_passes * 2, 8)

        # ---- uncoarsening: refine each level, coarsest first, project down ---
        while levels:
            level = levels.pop()  # freed once the finer level holds its labels
            assignment = refine(
                *level.adj,
                level.vertex_weights,
                assignment,
                k,
                imbalance=self.imbalance,
                passes=passes,
                slot_src=level.slot_src,
            )
            passes = self.refine_passes
            if level.coarse_map is not None:
                assignment = assignment[level.coarse_map]

        # ---- subgraph-count/size balance (arXiv:1508.04265) --------------------
        if self.subgraph_aware:
            assignment = self._consolidate_fragments(template, assignment, k, cap)
        return assignment

    def _consolidate_fragments(
        self, template: GraphTemplate, assignment: np.ndarray, k: int, cap: float
    ) -> np.ndarray:
        """Fold fragment subgraphs into their best-connected partition.

        TI-BSP schedules *subgraphs*, so a partition's load is driven by its
        subgraph count and sizes, not just its vertex total.  Every subgraph
        has zero local edges to the rest of its own partition (maximality),
        so moving one wholesale to the partition it is most cut-connected to
        strictly reduces the cut — and moving an isolated fragment is free.
        Targets are chosen by (max connectivity, then fewest subgraphs, then
        lightest partition) subject to the vertex-weight cap, which is how
        subgraph count and size enter the balance objective.
        """
        from .subgraphs import subgraph_labels

        num_sg, labels = subgraph_labels(template, assignment)
        if num_sg <= k:
            return assignment
        assignment = assignment.copy()
        # Group vertices by subgraph once so each move is a slice, not a scan.
        by_sg = np.argsort(labels, kind="stable")
        sg_counts = np.bincount(labels, minlength=num_sg)
        sg_starts = np.zeros(num_sg + 1, dtype=np.int64)
        np.cumsum(sg_counts, out=sg_starts[1:])
        sg_sizes = sg_counts.astype(np.float64)
        sg_part = np.zeros(num_sg, dtype=np.int64)
        sg_part[labels] = assignment
        part_sizes = np.bincount(assignment, minlength=k).astype(np.float64)
        part_counts = np.bincount(sg_part, minlength=k)

        # Cut-edge connectivity of each subgraph to each partition.
        src, dst = template.undirected_edge_view()
        cut = assignment[src] != assignment[dst]
        cs, cd = src[cut], dst[cut]
        pairs = np.concatenate([labels[cs] * k + assignment[cd], labels[cd] * k + assignment[cs]])
        conn = np.bincount(pairs, minlength=num_sg * k).reshape(num_sg, k)

        ideal = part_sizes.sum() / k
        fragment_max = max(1.0, self.fragment_fraction * ideal)
        fragments = np.nonzero(sg_sizes <= fragment_max)[0]
        # Smallest fragments first: cheapest moves, most count-rebalancing
        # per unit of weight shifted.
        for sg in fragments[np.argsort(sg_sizes[fragments], kind="stable")]:
            p = int(sg_part[sg])
            if part_counts[p] <= 1:
                continue  # never empty a partition
            size = sg_sizes[sg]
            feasible = part_sizes + size <= cap
            feasible[p] = False
            if not feasible.any():
                continue
            row = conn[sg]
            best_conn = row[feasible].max()
            cand = np.nonzero(feasible & (row == best_conn))[0]
            if best_conn == 0 and part_counts[p] <= part_counts[cand].min() + 1:
                continue  # an isolated fragment only moves to improve counts
            # Subgraph count, then vertex load, break connectivity ties.
            q = int(cand[np.lexsort((part_sizes[cand], part_counts[cand]))[0]])
            members = by_sg[sg_starts[sg] : sg_starts[sg + 1]]
            assignment[members] = q
            part_sizes[p] -= size
            part_sizes[q] += size
            part_counts[p] -= 1
            part_counts[q] += 1
            sg_part[sg] = q
            # The move turned sg↔q cut edges local and left all other
            # connectivity untouched; zeroing the row retires the fragment.
            conn[sg] = 0
        return assignment

    def edge_cut(self, template: GraphTemplate, assignment: np.ndarray) -> float:
        """Cut weight of an assignment on this template (unit edge weights)."""
        return edge_cut_weight(*_symmetric_weighted_adjacency(template), np.asarray(assignment))
