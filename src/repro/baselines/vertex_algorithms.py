"""Vertex-centric algorithms for the Pregel baseline (run through the adapter).

These mirror the canonical Pregel formulations (Malewicz et al.): SSSP by
per-vertex label relaxation (one superstep per hop of progress), BFS as its
unweighted special case, and synchronous PageRank.
"""

from __future__ import annotations

import math

from .vertex_adapter import VertexComputation, VertexContext

__all__ = ["VertexSSSP", "VertexBFS", "VertexPageRank"]


class VertexSSSP(VertexComputation):
    """Pregel SSSP: value = current shortest distance (``inf`` initially).

    Superstep 0 runs every vertex; all but the source halt at once.
    """

    def __init__(self, source: int) -> None:
        self.source = int(source)

    def initial_value(self, vertex: int) -> float:
        return 0.0 if vertex == self.source else math.inf

    def _relax_neighbors(self, ctx: VertexContext, dist: float) -> None:
        for w, wt in zip(ctx.out_neighbors(), ctx.out_edge_weights()):
            ctx.send(int(w), dist + float(wt))

    def compute(self, ctx: VertexContext) -> None:
        if ctx.superstep == 0:
            if ctx.vertex == self.source:
                ctx.value = 0.0
                self._relax_neighbors(ctx, 0.0)
        else:
            incoming = min(ctx.messages) if ctx.messages else math.inf
            if incoming < ctx.value:
                ctx.value = incoming
                self._relax_neighbors(ctx, incoming)
        ctx.vote_to_halt()


class VertexBFS(VertexSSSP):
    """Unweighted BFS: SSSP with unit weights (run without a weight attr)."""


class VertexPageRank(VertexComputation):
    """Pregel PageRank: fixed iteration count, dangling vertices contribute 0."""

    def __init__(self, iterations: int = 30, damping: float = 0.85) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = int(iterations)
        self.damping = float(damping)

    def initial_value(self, vertex: int) -> float:
        return 0.0

    def compute(self, ctx: VertexContext) -> None:
        n = ctx.num_vertices
        if ctx.superstep == 0:
            ctx.value = 1.0 / n
        else:
            incoming = sum(ctx.messages)
            ctx.value = (1.0 - self.damping) / n + self.damping * incoming
        if ctx.superstep < self.iterations:
            nbrs = ctx.out_neighbors()
            if len(nbrs):
                share = ctx.value / len(nbrs)
                for w in nbrs:
                    ctx.send(int(w), share)
        else:
            ctx.vote_to_halt()
