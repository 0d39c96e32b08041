"""Subgraph-centric PageRank ("SubgraphRank") on one graph instance.

Synchronous PageRank where each superstep is one global power iteration:
internal rank flow is computed vectorially inside each subgraph, while flow
over remote edges is aggregated per destination subgraph and shipped as one
bulk array message — the message-count reduction that makes subgraph-centric
PageRank beat vertex-centric implementations (the paper cites SubgraphRank
[12]).

Dangling vertices (out-degree 0) contribute nothing, as in Pregel's original
formulation; the reference implementation mirrors this so results compare to
high precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext, EndOfTimestepContext
from ..core.patterns import Pattern
from ..kernels import local_incoming, push_contributions, remote_flow_batches

__all__ = ["PageRankComputation", "PageRankResult", "pagerank_from_result"]


@dataclass(frozen=True)
class PageRankResult:
    """Per-subgraph output: final PageRank of its vertices."""

    vertices: np.ndarray
    ranks: np.ndarray


class PageRankComputation(TimeSeriesComputation):
    """Fixed-iteration synchronous PageRank.

    Parameters
    ----------
    iterations:
        Number of power iterations (= number of supersteps after the first).
    damping:
        Damping factor ``d`` (rank = (1-d)/N + d·incoming).
    """

    pattern = Pattern.INDEPENDENT

    def __init__(self, iterations: int = 30, damping: float = 0.85) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = int(iterations)
        self.damping = float(damping)

    def _push(self, ctx: ComputeContext) -> None:
        """Compute this iteration's outgoing flow: local into state, remote out."""
        sg, st = ctx.subgraph, ctx.state
        contrib = push_contributions(st["pr"], st["out_deg"])
        st["pending_local"] = local_incoming(
            sg.num_vertices, sg.indices, sg.slot_src, contrib
        )
        for dst, verts, sums in remote_flow_batches(sg.remote, contrib):
            ctx.send_to_subgraph(dst, (verts, sums))

    def compute(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        n_global = ctx.instance.template.num_vertices
        if ctx.superstep == 0:
            st["pr"] = np.full(sg.num_vertices, 1.0 / n_global)
            out_deg = np.diff(sg.indptr).astype(np.float64)
            if len(sg.remote):
                np.add.at(out_deg, sg.remote.src_local, 1.0)
            st["out_deg"] = out_deg
            self._push(ctx)
            return
        # Fold in remote flow from the previous iteration and update ranks.
        incoming = st["pending_local"]
        for msg in ctx.messages:
            verts, sums = msg.payload
            incoming[sg.local_of(np.asarray(verts, dtype=np.int64))] += sums
        st["pr"] = (1.0 - self.damping) / n_global + self.damping * incoming
        if ctx.superstep >= self.iterations:
            ctx.vote_to_halt()
        else:
            self._push(ctx)

    def end_of_timestep(self, ctx: EndOfTimestepContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        if sg.num_vertices and "pr" in st:
            ctx.output(PageRankResult(sg.vertices.copy(), st["pr"].copy()))


def pagerank_from_result(result, num_vertices: int) -> np.ndarray:
    """Assemble the global rank vector from an :class:`AppResult`."""
    pr = np.zeros(num_vertices)
    for _t, _sg, rec in result.outputs:
        if isinstance(rec, PageRankResult):
            pr[rec.vertices] = rec.ranks
    return pr
