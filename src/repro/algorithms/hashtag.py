"""Hashtag Aggregation — paper Section III-A (eventually dependent pattern).

Computes the statistical summary of one hashtag over a social network's
time-series: the per-timestep occurrence count, the total across time, and
the rate of change.

Per the paper: in every timestep each subgraph counts the hashtag's
occurrences among its vertices and ships the count to the Merge step.  In
Merge, each subgraph assembles its per-timestep ``hash[]`` list from its own
messages (ordered by timestep) and sends it to the largest subgraph of the
first partition, which aggregates all lists element-wise in the next merge
superstep — mimicking a ``Master.Compute``.
"""

from __future__ import annotations

import operator

import numpy as np

from .._value import Value
from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext, MergeContext
from ..core.patterns import Pattern
from ..kernels import count
from ..partition.base import PartitionedGraph

__all__ = ["HashtagAggregationComputation", "HashtagSummary", "largest_subgraph_in_partition"]


def largest_subgraph_in_partition(pg: PartitionedGraph, partition_id: int = 0) -> int:
    """Global id of the largest subgraph in ``partition_id`` (the paper's master)."""
    part = pg.partitions[partition_id]
    if not part.subgraphs:
        raise ValueError(f"partition {partition_id} has no subgraphs")
    return max(part.subgraphs, key=lambda sg: sg.num_vertices).subgraph_id


class HashtagSummary(Value):
    """The aggregated result emitted by the master subgraph at Merge: the
    occurrences per timestep, across all timesteps, and the first difference
    of the counts."""

    __slots__ = ("hashtag", "counts", "total", "rate_of_change")

    def __init__(
        self, hashtag: object, counts: np.ndarray, total: int, rate_of_change: np.ndarray
    ) -> None:
        self.hashtag, self.counts, self.total = hashtag, counts, total
        self.rate_of_change = rate_of_change

    @property
    def peak_timestep(self) -> int:
        """Timestep with the highest occurrence count."""
        return int(np.argmax(self.counts)) if len(self.counts) else -1


class HashtagAggregationComputation(TimeSeriesComputation):
    """TI-BSP hashtag statistics.

    Parameters
    ----------
    hashtag:
        The integer hashtag id to count.
    master_subgraph:
        Global subgraph id performing the final aggregation; use
        :meth:`for_partitioned_graph` to pick the paper's choice (the
        largest subgraph of partition 0).
    tweets_attr:
        Ragged vertex attribute holding each vertex's hashtags (occurrences
        counted with multiplicity).
    """

    pattern = Pattern.EVENTUALLY_DEPENDENT

    def __init__(
        self,
        hashtag,
        master_subgraph: int = 0,
        tweets_attr: str = "tweets",
    ) -> None:
        self.hashtag = operator.index(hashtag)
        self.master_subgraph = int(master_subgraph)
        self.tweets_attr = tweets_attr

    @classmethod
    def for_partitioned_graph(cls, pg: PartitionedGraph, hashtag, **kwargs):
        """Build with the paper's master: largest subgraph in partition 0."""
        return cls(hashtag, master_subgraph=largest_subgraph_in_partition(pg, 0), **kwargs)

    def combine(self, dst: int, payloads: list) -> np.ndarray:
        """Count combiner: element-wise sum of per-timestep count vectors.

        The master adds incoming ``hash[]`` lists anyway, so each host can
        pre-aggregate its subgraphs' lists into one vector before the
        barrier (padding to the longest list).
        """
        T = max(len(p) for p in payloads)
        counts = np.zeros(T, dtype=np.int64)
        for p in payloads:
            counts[: len(p)] += p
        return counts

    # -- timestep phase -----------------------------------------------------------------

    def compute(self, ctx: ComputeContext) -> None:
        if ctx.superstep == 0:
            occurrences = count(ctx.take_vertices(self.tweets_attr), self.hashtag)
            ctx.send_to_merge((ctx.timestep, occurrences))
        ctx.vote_to_halt()

    # -- merge phase --------------------------------------------------------------------

    def merge(self, ctx: MergeContext) -> None:
        if ctx.superstep == 0:
            # hash[i] = this subgraph's count at timestep i (Section III-A).
            by_timestep = {t: c for (t, c) in (m.payload for m in ctx.messages)}
            T = max(by_timestep) + 1 if by_timestep else 0
            hash_list = np.zeros(T, dtype=np.int64)
            for t, c in by_timestep.items():
                hash_list[t] = c
            ctx.send_to_subgraph(self.master_subgraph, hash_list)
            if ctx.subgraph.subgraph_id != self.master_subgraph:
                ctx.vote_to_halt()
        else:
            if ctx.subgraph.subgraph_id == self.master_subgraph and ctx.messages:
                T = max(len(m.payload) for m in ctx.messages)
                counts = np.zeros(T, dtype=np.int64)
                for m in ctx.messages:
                    counts[: len(m.payload)] += m.payload
                ctx.output(
                    HashtagSummary(
                        hashtag=self.hashtag,
                        counts=counts,
                        total=int(counts.sum()),
                        rate_of_change=np.diff(counts) if T > 1 else np.zeros(0, dtype=np.int64),
                    )
                )
            ctx.vote_to_halt()
