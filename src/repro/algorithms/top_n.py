"""Daily Top-N vertices — the paper's *independent* pattern example.

Section II-B motivates the pattern with "finding the daily Top-N central
vertices in a year to visualize traffic flows ... in a pleasingly temporally
parallel manner": every instance is analyzed independently and the result is
the union of per-instance results.

Per timestep, each subgraph selects its local top-N vertices by a vertex
attribute (e.g. traffic volume), ships them to a master subgraph, and the
master emits the global per-timestep top-N in the next superstep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext
from ..core.patterns import Pattern

__all__ = ["TopNComputation", "TopNResult"]


@dataclass(frozen=True)
class TopNResult:
    """Global top-N for one timestep, highest value first."""

    timestep: int
    vertices: np.ndarray
    values: np.ndarray


class TopNComputation(TimeSeriesComputation):
    """Per-instance global top-N by a vertex attribute.

    Parameters
    ----------
    n:
        Number of top vertices to report per timestep.
    value_attr:
        Numeric vertex attribute to rank by.
    master_subgraph:
        Subgraph that merges the partial results (default 0).
    """

    pattern = Pattern.INDEPENDENT

    def __init__(self, n: int, value_attr: str, master_subgraph: int = 0) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = int(n)
        self.value_attr = value_attr
        self.master_subgraph = int(master_subgraph)

    def compute(self, ctx: ComputeContext) -> None:
        sg = ctx.subgraph
        if ctx.superstep == 0:
            values = ctx.take_vertices(self.value_attr)
            k = min(self.n, len(values))
            if k:
                # Partial selection then exact ordering of the local top-k.
                top = np.argpartition(-values, k - 1)[:k]
                top = top[np.argsort(-values[top], kind="stable")]
                ctx.send_to_subgraph(
                    self.master_subgraph, (sg.vertices[top].copy(), values[top].copy())
                )
            if sg.subgraph_id != self.master_subgraph:
                ctx.vote_to_halt()
            return
        if sg.subgraph_id == self.master_subgraph and ctx.messages:
            verts = np.concatenate([m.payload[0] for m in ctx.messages])
            vals = np.concatenate([m.payload[1] for m in ctx.messages])
            k = min(self.n, len(vals))
            order = np.argsort(-vals, kind="stable")[:k]
            # Deterministic tie-break on vertex index.
            order = order[np.lexsort((verts[order], -vals[order]))]
            ctx.output(TopNResult(ctx.timestep, verts[order], vals[order]))
        ctx.vote_to_halt()
