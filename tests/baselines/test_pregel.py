"""Tests for the Pregel baseline: vertex programs on the TI-BSP engine over
hash placement (Giraph's ``v % k``), and the Fig 5b harness built on it."""

import numpy as np
import pytest

from repro.algorithms import reference as ref
from repro.baselines import (
    VertexBFS,
    VertexCentricAdapter,
    VertexComputation,
    VertexPageRank,
    VertexSSSP,
    fig5b_comparison,
    vertex_values_from_result,
)
from repro.core import EngineConfig, run_application
from repro.generators import road_latency_collection
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from tests.conftest import make_grid_template, make_random_template, populate_random


def run_pregel(computation, tpl, workers, coll=None, weight_attr=None, config=None):
    """Run a vertex program the way the Fig 5b Giraph bar does; return
    ``(global vertex values, AppResult)``."""
    coll = coll if coll is not None else build_collection(tpl, 1)
    hpg = partition_graph(tpl, workers, HashPartitioner())
    adapter = VertexCentricAdapter(computation, hpg.vertex_subgraph, weight_attr)
    res = run_application(adapter, hpg, coll, timestep_range=(0, 1), config=config)
    return vertex_values_from_result(res, tpl.num_vertices), res


def as_float(values):
    return np.nan_to_num(np.array(values, dtype=float), posinf=1e18)


class TestEngineSemantics:
    def test_message_delivered_next_superstep(self):
        tpl = make_grid_template(1, 3)  # path 0-1-2

        class Hop(VertexComputation):
            def initial_value(self, v):
                return []

            def compute(self, ctx):
                ctx.value = ctx.value + [(ctx.superstep, list(ctx.messages))]
                if ctx.superstep == 0 and ctx.vertex == 0:
                    ctx.send(1, "hi")
                ctx.vote_to_halt()

        values, _ = run_pregel(Hop(), tpl, 2)
        assert values[1] == [(0, []), (1, ["hi"])]

    def test_halted_vertex_not_recomputed(self):
        tpl = make_grid_template(1, 2)
        counts = {0: 0, 1: 0}

        class Count(VertexComputation):
            def compute(self, ctx):
                counts[ctx.vertex] += 1
                if ctx.vertex == 0 and ctx.superstep < 3:
                    ctx.send(0, "self")
                ctx.vote_to_halt()

        run_pregel(Count(), tpl, 1)
        assert counts[0] == 4  # kept alive by self-messages
        assert counts[1] == 1  # halted after superstep 0

    def test_max_supersteps_guard(self):
        tpl = make_grid_template(1, 2)

        class Forever(VertexComputation):
            def compute(self, ctx):
                ctx.send(ctx.vertex, "again")

        with pytest.raises(RuntimeError, match="max_supersteps"):
            run_pregel(Forever(), tpl, 1, config=EngineConfig(max_supersteps=5))

    def test_invalid_workers(self):
        tpl = make_grid_template(2, 2)
        coll = build_collection(tpl, 1)
        with pytest.raises(ValueError):
            fig5b_comparison(partition_graph(tpl, 1), coll, num_workers=0)

    def test_metrics_recorded_per_worker(self):
        tpl = make_grid_template(3, 3)
        _, res = run_pregel(VertexBFS(0), tpl, 3)
        assert res.metrics.total_supersteps() > 1
        assert res.total_wall_s > 0
        assert len(res.metrics.partition_breakdown()) == 3


class TestVertexAlgorithms:
    def test_bfs_matches_reference(self, rng):
        tpl = make_random_template(40, 80, rng)
        values, _ = run_pregel(VertexBFS(0), tpl, 3)
        np.testing.assert_allclose(as_float(values), as_float(ref.bfs_levels(tpl, 0)))

    def test_sssp_matches_reference(self, rng):
        tpl = make_random_template(40, 80, rng)
        coll = build_collection(tpl, 1, populate_random(4))
        values, _ = run_pregel(VertexSSSP(0), tpl, 3, coll, weight_attr="latency")
        want = ref.single_source_shortest_paths(
            tpl, 0, coll.instance(0).edge_column("latency")
        )
        np.testing.assert_allclose(as_float(values), as_float(want))

    def test_pagerank_matches_reference(self, rng):
        tpl = make_random_template(30, 70, rng, directed=True)
        values, _ = run_pregel(VertexPageRank(12), tpl, 2)
        np.testing.assert_allclose(
            np.array(values), ref.pagerank(tpl, iterations=12), atol=1e-12
        )

    def test_pagerank_invalid_iterations(self):
        with pytest.raises(ValueError):
            VertexPageRank(0)

    def test_bfs_supersteps_track_eccentricity(self):
        """Vertex-centric BFS needs ~one superstep per hop — the structural
        disadvantage Fig 5b exploits."""
        tpl = make_grid_template(1, 30)  # path, eccentricity 29 from vertex 0
        _, res = run_pregel(VertexBFS(0), tpl, 2)
        assert res.metrics.total_supersteps() >= 29


class TestFig5bHarness:
    @pytest.fixture(scope="class")
    def case(self):
        tpl = make_grid_template(8, 30, name="CARN-ish")
        coll = road_latency_collection(tpl, 10, seed=1)
        pg = partition_graph(tpl, 3)
        return tpl, coll, pg, fig5b_comparison(pg, coll)

    def test_ordering_holds(self, case):
        *_, row = case
        # Paper's shape: Giraph's single SSSP is slower than GoFFish's SSSP,
        # and slower than GoFFish TDSP over the whole collection.
        assert row.giraph_sssp_1x > row.goffish_sssp_1x
        assert row.giraph_sssp_1x > row.goffish_tdsp_50x
        assert row.goffish_tdsp_50x >= row.goffish_sssp_1x
        assert row.giraph_supersteps > row.goffish_sssp_supersteps
        assert set(row.as_row()) >= {"graph", "Giraph SSSP 1x (s)"}

    def test_giraph_bar_is_the_adapter_over_hash_placement(self, case):
        """The Giraph supersteps are the adapter run's, end-of-timestep pass
        included, like every column GoFFish reports."""
        tpl, coll, pg, row = case
        _, res = run_pregel(VertexBFS(0), tpl, pg.num_partitions, coll)
        assert row.giraph_supersteps == res.metrics.total_supersteps()
