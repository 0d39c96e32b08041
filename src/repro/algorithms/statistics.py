"""Per-instance statistics — the *independent* pattern (paper Section II-B).

    "...there are also algorithms where each graph instance is treated
    independently, such as when gathering independent statistics on each
    instance."

:class:`InstanceStatisticsComputation` computes, for every timestep, the
summary statistics of a numeric vertex or edge attribute (count, sum, min,
max, mean, variance, and a fixed-bin histogram), aggregated across subgraphs
with a two-superstep reduce onto a master subgraph.  Partials combine with
the standard parallel-variance (Chan et al.) merge, so the distributed
moments equal the centralized ones to floating-point accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext
from ..core.patterns import Pattern

__all__ = ["AttributeStats", "InstanceStatisticsComputation", "stats_series_from_result"]


@dataclass(frozen=True)
class AttributeStats:
    """Summary statistics of one attribute at one timestep."""

    timestep: int
    count: int
    total: float
    minimum: float
    maximum: float
    mean: float
    variance: float  #: population variance
    histogram: np.ndarray  #: counts per bin
    bin_edges: np.ndarray


def _partial(values: np.ndarray, edges: np.ndarray) -> tuple:
    """(count, sum, min, max, M2-style sum of squared deviations, histogram)."""
    n = len(values)
    if n == 0:
        return (0, 0.0, np.inf, -np.inf, 0.0, np.zeros(len(edges) - 1, dtype=np.int64))
    mean = float(values.mean())
    m2 = float(((values - mean) ** 2).sum())
    hist, _ = np.histogram(values, bins=edges)
    return (n, float(values.sum()), float(values.min()), float(values.max()), m2, hist)


def _combine(a: tuple, b: tuple) -> tuple:
    """Chan et al. pairwise merge of two partials."""
    na, sa, mina, maxa, m2a, ha = a
    nb, sb, minb, maxb, m2b, hb = b
    n = na + nb
    if n == 0:
        return (0, 0.0, np.inf, -np.inf, 0.0, ha + hb)
    if na == 0:
        return (nb, sb, minb, maxb, m2b, ha + hb)
    if nb == 0:
        return (na, sa, mina, maxa, m2a, ha + hb)
    delta = sb / nb - sa / na
    m2 = m2a + m2b + delta * delta * na * nb / n
    return (n, sa + sb, min(mina, minb), max(maxa, maxb), m2, ha + hb)


class InstanceStatisticsComputation(TimeSeriesComputation):
    """Independent-pattern statistics of a numeric attribute, per timestep.

    Parameters
    ----------
    attr:
        Attribute name.
    on:
        ``"vertices"`` or ``"edges"`` — which element class carries it.
    bin_edges:
        Histogram bin edges (defaults to 10 bins over ``(range_low,
        range_high)``).
    range_low, range_high:
        Histogram range when ``bin_edges`` is not given.
    master_subgraph:
        Subgraph emitting the per-timestep result.
    """

    pattern = Pattern.INDEPENDENT

    def __init__(
        self,
        attr: str,
        *,
        on: str = "vertices",
        bin_edges: np.ndarray | None = None,
        range_low: float = 0.0,
        range_high: float = 1.0,
        master_subgraph: int = 0,
    ) -> None:
        if on not in ("vertices", "edges"):
            raise ValueError("on must be 'vertices' or 'edges'")
        self.attr = attr
        self.on = on
        self.bin_edges = (
            np.asarray(bin_edges, dtype=np.float64)
            if bin_edges is not None
            else np.linspace(range_low, range_high, 11)
        )
        if len(self.bin_edges) < 2 or np.any(np.diff(self.bin_edges) <= 0):
            raise ValueError("bin_edges must be increasing with >= 2 entries")
        self.master_subgraph = int(master_subgraph)

    def _local_values(self, ctx: ComputeContext) -> np.ndarray:
        if self.on == "vertices":
            return ctx.take_vertices(self.attr)
        return ctx.take_edges(self.attr, self._owned_edge_rows(ctx))

    @staticmethod
    def _owned_edge_rows(ctx: ComputeContext) -> np.ndarray:
        """Template edge rows this subgraph counts, resolved once: each
        subgraph owns its local edges exactly once per undirected edge
        (edge_index repeats per direction — deduplicate) plus its outgoing
        remote edges.  On undirected templates a remote edge appears once on
        each side; to count each template edge once we keep only remote rows
        where this side holds the edge's source."""
        rows = ctx.state.get("owned_edge_rows")
        if rows is None:
            sg = ctx.subgraph
            remote = sg.remote
            src_side = (
                ctx.instance.template.edge_src[remote.edge_index]
                == sg.vertices[remote.src_local]
            )
            rows = ctx.state["owned_edge_rows"] = np.unique(
                np.concatenate([sg.edge_index, remote.edge_index[src_side]])
            )
        return rows

    def compute(self, ctx: ComputeContext) -> None:
        if ctx.superstep == 0:
            partial = _partial(self._local_values(ctx), self.bin_edges)
            ctx.send_to_subgraph(self.master_subgraph, partial)
            if ctx.subgraph.subgraph_id != self.master_subgraph:
                ctx.vote_to_halt()
            return
        if ctx.subgraph.subgraph_id == self.master_subgraph and ctx.messages:
            acc = (0, 0.0, np.inf, -np.inf, 0.0, np.zeros(len(self.bin_edges) - 1, dtype=np.int64))
            for msg in ctx.messages:
                acc = _combine(acc, msg.payload)
            n, total, mn, mx, m2, hist = acc
            ctx.output(
                AttributeStats(
                    timestep=ctx.timestep,
                    count=n,
                    total=total,
                    minimum=mn if n else float("nan"),
                    maximum=mx if n else float("nan"),
                    mean=total / n if n else float("nan"),
                    variance=m2 / n if n else float("nan"),
                    histogram=hist,
                    bin_edges=self.bin_edges.copy(),
                )
            )
        ctx.vote_to_halt()


def stats_series_from_result(result) -> dict[int, AttributeStats]:
    """Timestep → :class:`AttributeStats`, assembled from an AppResult."""
    return {
        rec.timestep: rec
        for _t, _sg, rec in result.outputs
        if isinstance(rec, AttributeStats)
    }
