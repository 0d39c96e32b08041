"""Subgraph-centric single-graph algorithms: SSSP/BFS/WCC/PageRank/Top-N."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    BFSComputation,
    PageRankComputation,
    SSSPComputation,
    TopNComputation,
    WCCComputation,
    pagerank_from_result,
    sssp_labels_from_result,
    wcc_labels_from_result,
)
from repro.algorithms import reference as ref
from repro.core import run_application
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from tests.conftest import make_grid_template, make_random_template, populate_random


def build_case(seed=0, n=40, m=90, k=3, directed=False):
    rng = np.random.default_rng(seed)
    tpl = make_random_template(n, m, rng, directed=directed)
    coll = build_collection(tpl, 2, populate_random(seed))
    pg = partition_graph(tpl, k, HashPartitioner(seed=seed))
    return tpl, coll, pg


class TestSSSP:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 4))
    def test_weighted_matches_dijkstra(self, seed, k):
        tpl, coll, pg = build_case(seed, k=k)
        res = run_application(SSSPComputation(0, "latency"), pg, coll, timestep_range=(0, 1))
        got = sssp_labels_from_result(res, tpl.num_vertices)
        want = ref.single_source_shortest_paths(
            tpl, 0, coll.instance(0).edge_column("latency")
        )
        np.testing.assert_allclose(
            np.nan_to_num(got, posinf=1e18), np.nan_to_num(want, posinf=1e18)
        )

    def test_directed(self):
        tpl, coll, pg = build_case(3, directed=True)
        res = run_application(SSSPComputation(0, "latency"), pg, coll, timestep_range=(0, 1))
        got = sssp_labels_from_result(res, tpl.num_vertices)
        want = ref.single_source_shortest_paths(
            tpl, 0, coll.instance(0).edge_column("latency")
        )
        np.testing.assert_allclose(
            np.nan_to_num(got, posinf=1e18), np.nan_to_num(want, posinf=1e18)
        )

    def test_bfs_unweighted(self):
        tpl, coll, pg = build_case(9)
        res = run_application(BFSComputation(4), pg, coll, timestep_range=(0, 1))
        got = sssp_labels_from_result(res, tpl.num_vertices)
        want = ref.bfs_levels(tpl, 4)
        np.testing.assert_allclose(
            np.nan_to_num(got, posinf=1e18), np.nan_to_num(want, posinf=1e18)
        )

    def test_subgraph_centric_fewer_supersteps_than_diameter(self):
        """The headline claim: supersteps scale with the subgraph meta-graph,
        not the vertex graph (a 1×N path partitioned into k chunks needs
        ~k supersteps, not ~N)."""
        tpl = make_grid_template(1, 60)  # path graph, diameter 59
        coll = build_collection(tpl, 1, populate_random(1))
        from repro.partition import BFSPartitioner

        pg = partition_graph(tpl, 3, BFSPartitioner(seed=0))
        res = run_application(BFSComputation(0), pg, coll, timestep_range=(0, 1))
        got = sssp_labels_from_result(res, 60)
        np.testing.assert_allclose(got, ref.bfs_levels(tpl, 0))
        assert res.metrics.total_supersteps() < 12  # far below diameter


class TestWCC:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 4), directed=st.booleans())
    def test_matches_reference(self, seed, k, directed):
        tpl, coll, pg = build_case(seed, m=45, k=k, directed=directed)
        res = run_application(WCCComputation(), pg, coll, timestep_range=(0, 1))
        got = wcc_labels_from_result(res, tpl.num_vertices)
        want = ref.weakly_connected_components(tpl)
        assert np.array_equal(got, want)

    def test_single_component_grid(self):
        tpl = make_grid_template(5, 5)
        coll = build_collection(tpl, 1, populate_random(0))
        pg = partition_graph(tpl, 4, HashPartitioner(seed=2))
        res = run_application(WCCComputation(), pg, coll, timestep_range=(0, 1))
        got = wcc_labels_from_result(res, 25)
        assert np.all(got == 0)


class TestPageRank:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_reference(self, directed):
        tpl, coll, pg = build_case(13, directed=directed)
        res = run_application(PageRankComputation(15), pg, coll, timestep_range=(0, 1))
        got = pagerank_from_result(res, tpl.num_vertices)
        want = ref.pagerank(tpl, iterations=15)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_iteration_count_controls_supersteps(self):
        tpl, coll, pg = build_case(13)
        res = run_application(PageRankComputation(5), pg, coll, timestep_range=(0, 1))
        # supersteps = iterations + 1 (push at 0) + 1 (end_of_timestep record)
        assert res.metrics.supersteps_per_timestep[0] == 7

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            PageRankComputation(0)


class TestTopN:
    def test_matches_manual(self):
        tpl, coll, pg = build_case(17)
        res = run_application(TopNComputation(4, "traffic"), pg, coll)
        recs = {rec.timestep: rec for _t, _sg, rec in res.outputs}
        for t in range(2):
            vals = coll.instance(t).vertex_column("traffic")
            want = np.sort(vals)[::-1][:4]
            np.testing.assert_allclose(np.sort(recs[t].values)[::-1], want)
            # Reported vertices actually carry those values.
            np.testing.assert_allclose(vals[recs[t].vertices], recs[t].values)

    def test_results_sorted_descending(self):
        tpl, coll, pg = build_case(18)
        res = run_application(TopNComputation(5, "traffic"), pg, coll)
        for _t, _sg, rec in res.outputs:
            assert np.all(np.diff(rec.values) <= 0)

    def test_n_larger_than_graph(self):
        tpl, coll, pg = build_case(19, n=6, m=8)
        res = run_application(TopNComputation(50, "traffic"), pg, coll)
        for _t, _sg, rec in res.outputs:
            assert len(rec.vertices) == 6

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            TopNComputation(0, "traffic")
