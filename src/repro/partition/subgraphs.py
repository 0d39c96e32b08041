"""Subgraph discovery: decompose a partitioned template into subgraphs.

Section II-C: *"A subgraph within a partition is a maximal set of vertices
that are weakly connected through only local edges."*  We therefore:

1. keep only local edges (both endpoints in the same partition);
2. label weakly connected components over those edges
   (:func:`repro.kernels.components` — each component is entirely inside
   one partition by construction);
3. build, per subgraph, a local-renumbered CSR adjacency and the columnar
   bundle of outgoing remote edges.

Everything is vectorized over template adjacency slots, so decomposition is
O(|adjacency|) plus a few sorts.  It is all a stored assignment needs
(:meth:`repro.storage.GoFS.open`), so this module imports no partitioner;
:func:`repro.partition.metis_like.partition_graph` is assignment plus
discovery in one call.
"""

from __future__ import annotations

import numpy as np

from ..graph.subgraph import RemoteEdges, Subgraph
from ..graph.template import GraphTemplate
from ..kernels import components, sorted_unique
from .base import Partition, PartitionedGraph, validate_assignment

__all__ = ["decompose", "subgraph_labels"]


def subgraph_labels(template: GraphTemplate, assignment: np.ndarray) -> tuple[int, np.ndarray]:
    """Label each vertex with its global subgraph id.

    Returns ``(num_subgraphs, labels)`` where labels are dense ids ordered by
    (partition, first-vertex) so that iteration order is deterministic.
    """
    n = template.num_vertices
    src, dst = template.edge_src, template.edge_dst
    local = assignment[src] == assignment[dst]
    ncomp, raw = components(n, src[local], dst[local])
    if n == 0:
        return 0, raw
    # Re-label components deterministically: order by (partition, min vertex)
    # so subgraph ids are partition-major and reproducible across runs.
    # ``components`` already numbers by min vertex, so a stable sort on the
    # partition (one per component: local edges never leave it) is enough.
    comp_part = np.empty(ncomp, dtype=np.int64)
    comp_part[raw] = assignment
    comp_order = np.argsort(comp_part, kind="stable")
    remap = np.empty(ncomp, dtype=np.int64)
    remap[comp_order] = np.arange(ncomp)
    return ncomp, remap[raw]


def decompose(
    template: GraphTemplate, assignment: np.ndarray, num_partitions: int
) -> PartitionedGraph:
    """Build the full :class:`PartitionedGraph` for an assignment."""
    assignment = validate_assignment(template, assignment, num_partitions)
    n = template.num_vertices
    num_sg, labels = subgraph_labels(template, assignment)

    indptr, adj_dst, adj_edge = template.adjacency
    slot_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    same_part = assignment[slot_src] == assignment[adj_dst]

    # ---- local adjacency grouped by source subgraph --------------------------
    local_slots = np.nonzero(same_part)[0]
    l_src, l_dst, l_edge = slot_src[local_slots], adj_dst[local_slots], adj_edge[local_slots]
    l_sg = labels[l_src]
    l_order = np.argsort(l_sg, kind="stable")
    l_src, l_dst, l_edge, l_sg = l_src[l_order], l_dst[l_order], l_edge[l_order], l_sg[l_order]
    l_bounds = np.searchsorted(l_sg, np.arange(num_sg + 1))

    # ---- remote adjacency grouped by source subgraph --------------------------
    remote_slots = np.nonzero(~same_part)[0]
    r_src, r_dst, r_edge = slot_src[remote_slots], adj_dst[remote_slots], adj_edge[remote_slots]
    r_sg = labels[r_src]
    r_order = np.argsort(r_sg, kind="stable")
    r_src, r_dst, r_edge, r_sg = r_src[r_order], r_dst[r_order], r_edge[r_order], r_sg[r_order]
    r_bounds = np.searchsorted(r_sg, np.arange(num_sg + 1))

    # ---- incoming remote neighbors per subgraph --------------------------------
    # (matters on directed templates where out- and in-neighbor sets differ)
    in_dst_sg = labels[r_dst]
    in_order = np.argsort(in_dst_sg, kind="stable")
    in_sorted = in_dst_sg[in_order]
    in_src_sg = labels[r_src[in_order]]
    in_bounds = np.searchsorted(in_sorted, np.arange(num_sg + 1))

    # ---- vertices grouped by subgraph -----------------------------------------
    # Stable, so each group is ascending — already a subgraph's sorted
    # ``vertices`` — and every vertex is in exactly one: one array of local
    # numbers answers every global -> local lookup below with a gather.
    v_order = np.argsort(labels, kind="stable")
    v_sg = labels[v_order]
    v_bounds = np.searchsorted(v_sg, np.arange(num_sg + 1))
    local_of = np.empty(n, dtype=np.int64)
    local_of[v_order] = np.arange(n, dtype=np.int64) - v_bounds[v_sg]

    partitions = [Partition(pid) for pid in range(num_partitions)]
    subgraphs: list[Subgraph] = []
    for sg_id in range(num_sg):
        verts = v_order[v_bounds[sg_id] : v_bounds[sg_id + 1]]
        pid = int(assignment[verts[0]])

        lo, hi = l_bounds[sg_id], l_bounds[sg_id + 1]
        src_loc = local_of[l_src[lo:hi]]
        dst_loc = local_of[l_dst[lo:hi]]
        # CSR over local vertex numbers.
        order = np.argsort(src_loc, kind="stable")
        sg_indptr = np.zeros(len(verts) + 1, dtype=np.int64)
        np.add.at(sg_indptr, src_loc + 1, 1)
        np.cumsum(sg_indptr, out=sg_indptr)
        sg_indices = dst_loc[order]
        sg_edges = l_edge[lo:hi][order]

        ro, rhi = r_bounds[sg_id], r_bounds[sg_id + 1]
        rd = r_dst[ro:rhi]
        remote = RemoteEdges(
            src_local=local_of[r_src[ro:rhi]],
            dst_global=rd.copy(),
            dst_subgraph=labels[rd],
            dst_partition=assignment[rd],
            edge_index=r_edge[ro:rhi].copy(),
        )

        in_nbrs = sorted_unique(in_src_sg[in_bounds[sg_id] : in_bounds[sg_id + 1]])
        sg = Subgraph(
            sg_id, pid, verts, sg_indptr, sg_indices, sg_edges, remote, in_nbrs
        )
        subgraphs.append(sg)
        partitions[pid].subgraphs.append(sg)

    return PartitionedGraph(template, assignment, labels, partitions, subgraphs)
