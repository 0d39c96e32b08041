"""Subgraph-centric Single Source Shortest Path on one graph instance.

The single-graph baseline of Fig 5b: SSSP (weighted Dijkstra per subgraph,
or BFS when unweighted) executed as a one-timestep TI-BSP application using
the independent pattern.  Each superstep, every subgraph settles its local
shortest paths completely (the subgraph-centric advantage — a vertex-centric
engine needs one superstep *per hop*), then ships boundary relaxations to
neighboring subgraphs in bulk.

The inner settle runs on the kernel plane
(:func:`repro.kernels.relax_to_fixpoint` — batched Bellman-Ford over the
subgraph CSR), which reaches the same least fixpoint, through the same
float path sums, as a per-vertex Dijkstra.
"""

from __future__ import annotations

import numpy as np

from .._value import Value
from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext, EndOfTimestepContext
from ..core.patterns import Pattern
from ..kernels import (
    combine_min_labels,
    group_min_pairs,
    index_mask,
    relax_to_fixpoint,
)

__all__ = [
    "SSSPComputation",
    "BFSComputation",
    "SSSPResult",
    "sssp_labels_from_result",
]

_INF = np.inf


class SSSPResult(Value):
    """Per-subgraph output record: the reached vertices (global indices) and
    their shortest-path distances."""

    __slots__ = ("vertices", "labels")

    def __init__(self, vertices: np.ndarray, labels: np.ndarray) -> None:
        self.vertices, self.labels = vertices, labels


class SSSPComputation(TimeSeriesComputation):
    """Subgraph-centric SSSP from a source vertex on instance 0.

    Parameters
    ----------
    source:
        Global (template) index of the source vertex.
    weight_attr:
        Edge attribute with non-negative weights, or ``None`` for unweighted
        traversal (hop counts; what Fig 5b's "SSSP on an unweighted graph
        degenerates to BFS" footnote describes).
    """

    pattern = Pattern.INDEPENDENT

    def __init__(self, source: int, weight_attr: str | None = "latency") -> None:
        self.source = int(source)
        self.weight_attr = weight_attr

    def combine(self, dst: int, payloads: list):
        """Min-distance combiner: keep the best relaxation per vertex."""
        return combine_min_labels(payloads)

    def _weights(self, ctx: ComputeContext) -> tuple[np.ndarray, np.ndarray]:
        sg = ctx.subgraph
        if self.weight_attr is None:
            return (
                np.ones(len(sg.edge_index)),
                np.ones(len(sg.remote.edge_index)),
            )
        return (
            ctx.take_edges(self.weight_attr, sg.edge_index),
            ctx.take_edges(self.weight_attr, sg.remote.edge_index),
        )

    def _kernel_relax(self, ctx: ComputeContext, seeds: np.ndarray) -> None:
        """Settle the whole frontier at once; ship boundary relaxations."""
        sg, st = ctx.subgraph, ctx.state
        label = st["label"]
        improved = relax_to_fixpoint(
            sg.indptr, sg.indices, st["w_local"], label, seeds, slot_src=sg.slot_src
        )
        remote = sg.remote
        if not len(remote):
            return
        changed = index_mask(np.concatenate((seeds, improved)), sg.num_vertices)
        rows = np.flatnonzero(changed[remote.src_local])
        cand = label[remote.src_local[rows]] + st["w_remote"][rows]
        for dst_sg, verts, vals in group_min_pairs(
            remote.dst_subgraph[rows], remote.dst_global[rows], cand
        ):
            ctx.send_to_subgraph(dst_sg, (verts, vals))

    # -- TI-BSP hooks ------------------------------------------------------------------

    def compute(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        seeds: list[np.ndarray] = []
        if ctx.superstep == 0:
            st["label"] = np.full(sg.num_vertices, _INF)
            st["w_local"], st["w_remote"] = self._weights(ctx)
            if sg.contains(self.source):
                lv = sg.local_of(self.source)
                st["label"][lv] = 0.0
                seeds.append(np.asarray([lv], dtype=np.int64))
        else:
            label = st["label"]
            for msg in ctx.messages:
                verts, labels = msg.payload
                locs = sg.local_of(np.atleast_1d(np.asarray(verts, dtype=np.int64)))
                nd = np.atleast_1d(np.asarray(labels, dtype=np.float64))
                upd = nd < label[locs]
                if upd.any():
                    label[locs[upd]] = nd[upd]
                    seeds.append(locs[upd])
        if seeds:
            in_seed = np.zeros(sg.num_vertices, dtype=bool)
            for s in seeds:
                in_seed[s] = True
            self._kernel_relax(ctx, np.flatnonzero(in_seed))
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx: EndOfTimestepContext) -> None:
        label = ctx.state.get("label")
        if label is None:
            return
        reached = np.isfinite(label)
        if reached.any():
            ctx.output(
                SSSPResult(ctx.subgraph.vertices[reached].copy(), label[reached].copy())
            )


class BFSComputation(SSSPComputation):
    """Unweighted BFS (hop counts) — SSSP with unit weights."""

    def __init__(self, source: int) -> None:
        super().__init__(source, weight_attr=None)


def sssp_labels_from_result(result, num_vertices: int) -> np.ndarray:
    """Assemble the global label vector (``inf`` = unreached)."""
    labels = np.full(num_vertices, _INF)
    for _t, _sg, rec in result.outputs:
        if isinstance(rec, SSSPResult):
            labels[rec.vertices] = rec.labels
    return labels
