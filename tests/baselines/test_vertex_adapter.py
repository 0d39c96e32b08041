"""Tests for running vertex-centric programs on the TI-BSP engine."""

import numpy as np
import pytest

from repro.algorithms import reference as ref
from repro.baselines import (
    VertexBFS,
    VertexCentricAdapter,
    VertexComputation,
    VertexPageRank,
    VertexSSSP,
    vertex_values_from_result,
)
from repro.core import run_application
from repro.graph import build_collection
from repro.partition import HashPartitioner, MetisLikePartitioner, partition_graph
from tests.conftest import make_grid_template, make_random_template, populate_random


def build_case(seed=0, n=40, m=90, k=3, directed=False):
    rng = np.random.default_rng(seed)
    tpl = make_random_template(n, m, rng, directed=directed)
    coll = build_collection(tpl, 2, populate_random(seed))
    pg = partition_graph(tpl, k, HashPartitioner(seed=seed))
    return tpl, coll, pg


class TestAdaptedAlgorithms:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_sssp(self, k):
        tpl, coll, pg = build_case(1, k=k)
        adapter = VertexCentricAdapter(VertexSSSP(0), pg.vertex_subgraph, "latency")
        res = run_application(adapter, pg, coll, timestep_range=(0, 1))
        got = np.array(vertex_values_from_result(res, tpl.num_vertices), dtype=float)
        want = ref.single_source_shortest_paths(
            tpl, 0, coll.instance(0).edge_column("latency")
        )
        np.testing.assert_allclose(
            np.nan_to_num(got, posinf=1e18), np.nan_to_num(want, posinf=1e18)
        )

    def test_bfs_directed(self):
        tpl, coll, pg = build_case(2, directed=True)
        adapter = VertexCentricAdapter(VertexBFS(0), pg.vertex_subgraph)
        res = run_application(adapter, pg, coll, timestep_range=(0, 1))
        got = np.array(vertex_values_from_result(res, tpl.num_vertices), dtype=float)
        want = ref.bfs_levels(tpl, 0)
        np.testing.assert_allclose(
            np.nan_to_num(got, posinf=1e18), np.nan_to_num(want, posinf=1e18)
        )

    def test_pagerank(self):
        tpl, coll, pg = build_case(3)
        adapter = VertexCentricAdapter(VertexPageRank(12), pg.vertex_subgraph)
        res = run_application(adapter, pg, coll, timestep_range=(0, 1))
        got = np.array(vertex_values_from_result(res, tpl.num_vertices), dtype=float)
        np.testing.assert_allclose(got, ref.pagerank(tpl, iterations=12), atol=1e-12)


class TestAdapterMechanics:
    def test_local_message_delivered_next_vertex_superstep(self):
        tpl = make_grid_template(1, 3)  # path 0-1-2 in few subgraphs
        coll = build_collection(tpl, 1)
        pg = partition_graph(tpl, 1, HashPartitioner())
        log = []

        class Probe(VertexComputation):
            def initial_value(self, v):
                return None

            def compute(self, ctx):
                log.append((ctx.superstep, ctx.vertex, list(ctx.messages)))
                if ctx.superstep == 0 and ctx.vertex == 0:
                    ctx.send(1, "local-hop")
                ctx.vote_to_halt()

        adapter = VertexCentricAdapter(Probe(), pg.vertex_subgraph)
        run_application(adapter, pg, coll, timestep_range=(0, 1))
        received = [e for e in log if e[1] == 1 and e[2]]
        assert received == [(1, 1, ["local-hop"])]

    def test_cross_subgraph_message(self):
        tpl = make_grid_template(2, 4)
        coll = build_collection(tpl, 1)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        # Pick two vertices in different subgraphs.
        a = int(pg.subgraphs[0].vertices[0])
        b = int(pg.subgraphs[-1].vertices[0])
        seen = {}

        class Cross(VertexComputation):
            def compute(self, ctx):
                if ctx.superstep == 0 and ctx.vertex == a:
                    ctx.send(b, "far")
                if ctx.messages:
                    seen[ctx.vertex] = list(ctx.messages)
                ctx.vote_to_halt()

        adapter = VertexCentricAdapter(Cross(), pg.vertex_subgraph)
        run_application(adapter, pg, coll, timestep_range=(0, 1))
        assert seen == {b: ["far"]}

    def test_per_instance_independence(self):
        """Each timestep re-initializes vertex values (independent pattern)."""
        tpl, coll, pg = build_case(5)
        adapter = VertexCentricAdapter(VertexBFS(0), pg.vertex_subgraph)
        res = run_application(adapter, pg, coll)  # two timesteps
        got0 = vertex_values_from_result(res, tpl.num_vertices, timestep=0)
        got1 = vertex_values_from_result(res, tpl.num_vertices, timestep=1)
        assert got0 == got1  # same topology, fresh state each instance
