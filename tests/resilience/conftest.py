"""Shared fixtures and (picklable) computations for the resilience tests."""

import pytest

from repro.core import Pattern, TimeSeriesComputation
from repro.generators import road_latency_collection, road_network
from repro.partition import partition_graph
from repro.runtime import CollectionInstanceSource

NUM_PARTITIONS = 2
NUM_TIMESTEPS = 4


class AccumulateSum(TimeSeriesComputation):
    """Sequentially dependent: each timestep adds onto the previous one's sum.

    Any lost or replayed temporal message shows up as a wrong accumulator —
    the bit-identity canary for rollback recovery.
    """

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def compute(self, ctx):
        if ctx.superstep == 0:
            prev = sum(m.payload for m in ctx.messages) if ctx.messages else 0
            ctx.state["acc"] = prev + ctx.subgraph.num_vertices
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx):
        ctx.send_to_next_timestep(ctx.state["acc"])
        ctx.output(ctx.state["acc"])


class RingRelay(TimeSeriesComputation):
    """Multi-superstep BSP: values relay around a subgraph ring for 3 hops.

    Exercises faults in the middle of a BSP — a journal replay that drops
    or duplicates an in-flight frame breaks the totals.
    """

    pattern = Pattern.EVENTUALLY_DEPENDENT
    HOPS = 3

    def __init__(self, num_subgraphs):
        self.num_subgraphs = num_subgraphs

    def compute(self, ctx):
        nxt = (ctx.subgraph.subgraph_id + 1) % self.num_subgraphs
        if ctx.superstep == 0:
            ctx.state["seen"] = ctx.subgraph.subgraph_id * 100 + ctx.timestep
            ctx.send_to_subgraph(nxt, ctx.state["seen"])
        elif ctx.superstep <= self.HOPS:
            for m in ctx.messages:
                ctx.state["seen"] += m.payload
            if ctx.superstep < self.HOPS:
                ctx.send_to_subgraph(nxt, ctx.state["seen"])
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx):
        ctx.output(ctx.state["seen"])
        ctx.send_to_merge(ctx.state["seen"])

    def merge(self, ctx):
        if ctx.superstep == 0:
            ctx.output(sum(m.payload for m in ctx.messages))
        ctx.vote_to_halt()


@pytest.fixture(scope="module")
def case():
    tpl = road_network(400, seed=11)
    coll = road_latency_collection(tpl, NUM_TIMESTEPS, seed=11)
    pg = partition_graph(tpl, NUM_PARTITIONS)
    return tpl, coll, pg


@pytest.fixture
def sources(case):
    _tpl, coll, _pg = case
    return [CollectionInstanceSource(coll) for _ in range(NUM_PARTITIONS)]
