"""Sanity tests for the reference implementations themselves (vs networkx)."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import reference as ref
from repro.graph import build_collection
from tests.conftest import make_grid_template, make_random_template, populate_random, ragged


def to_nx(tpl, weights=None):
    g = nx.DiGraph() if tpl.directed else nx.Graph()
    g.add_nodes_from(range(tpl.num_vertices))
    for e in range(tpl.num_edges):
        w = 1.0 if weights is None else float(weights[e])
        g.add_edge(int(tpl.edge_src[e]), int(tpl.edge_dst[e]), weight=w)
    return g


class TestSSSPvsNetworkx:
    @pytest.mark.parametrize("directed", [False, True])
    def test_weighted(self, rng, directed):
        tpl = make_random_template(30, 70, rng, directed=directed)
        weights = rng.uniform(0.5, 5.0, tpl.num_edges)
        got = ref.single_source_shortest_paths(tpl, 0, weights)
        lengths = nx.single_source_dijkstra_path_length(to_nx(tpl, weights), 0)
        for v in range(30):
            if v in lengths:
                assert got[v] == pytest.approx(lengths[v])
            else:
                assert np.isinf(got[v])

    def test_bfs(self, rng):
        tpl = make_random_template(30, 60, rng)
        got = ref.bfs_levels(tpl, 0)
        lengths = nx.single_source_shortest_path_length(to_nx(tpl), 0)
        for v in range(30):
            if v in lengths:
                assert got[v] == lengths[v]
            else:
                assert np.isinf(got[v])


class TestWCCvsNetworkx:
    @pytest.mark.parametrize("directed", [False, True])
    def test_components(self, rng, directed):
        tpl = make_random_template(40, 50, rng, directed=directed)
        got = ref.weakly_connected_components(tpl)
        g = to_nx(tpl)
        comps = (
            nx.weakly_connected_components(g) if directed else nx.connected_components(g)
        )
        for comp in comps:
            labels = {got[v] for v in comp}
            assert len(labels) == 1
            assert labels.pop() == min(comp)


class TestPagerankProperties:
    def test_uniform_on_cycle(self):
        from repro.graph import GraphTemplate

        n = 10
        tpl = GraphTemplate(n, np.arange(n), (np.arange(n) + 1) % n, directed=True)
        pr = ref.pagerank(tpl, iterations=50)
        np.testing.assert_allclose(pr, 1.0 / n, atol=1e-9)

    def test_sums_to_at_most_one(self, rng):
        tpl = make_random_template(30, 60, rng, directed=True)
        pr = ref.pagerank(tpl)
        assert 0 < pr.sum() <= 1.0 + 1e-9  # dangling mass leaks, never grows


class TestTimeExpandedDijkstra:
    def test_static_latencies_reduce_to_sssp_when_within_window(self):
        """With δ huge and constant latencies, TDSP == plain SSSP."""
        tpl = make_grid_template(3, 4)
        weights = np.random.default_rng(1).uniform(0.5, 2.0, tpl.num_edges)

        def pop(inst, t):
            inst.edge_values.set_column("latency", weights)

        coll = build_collection(tpl, 1, pop, delta=1000.0)
        got = ref.time_expanded_dijkstra(coll, 0)
        want = ref.single_source_shortest_paths(tpl, 0, weights)
        np.testing.assert_allclose(got, want)

    def test_waiting_is_beneficial(self):
        """Waiting for a cheap future edge beats an expensive current one."""
        from repro.graph import AttributeSchema, AttributeSpec, GraphTemplate

        tpl = GraphTemplate(
            2,
            [0],
            [1],
            edge_schema=AttributeSchema([AttributeSpec("latency", "float")]),
        )
        lat = {0: [100.0], 1: [2.0]}

        def pop(inst, t):
            inst.edge_values.set_column("latency", np.asarray(lat[t]))

        coll = build_collection(tpl, 2, pop, delta=5.0)
        got = ref.time_expanded_dijkstra(coll, 0)
        assert got[1] == pytest.approx(7.0)  # wait to t=5, then 2

    def test_monotone_in_horizon(self):
        """More instances can only reach more vertices / equal labels."""
        tpl = make_grid_template(3, 5)

        def pop(inst, t):
            r = np.random.default_rng(50 + t)
            inst.edge_values.set_column(
                "latency", r.uniform(1.0, 8.0, tpl.num_edges)
            )

        coll_short = build_collection(tpl, 2, pop, delta=4.0)
        coll_long = build_collection(tpl, 6, pop, delta=4.0)
        d_short = ref.time_expanded_dijkstra(coll_short, 0)
        d_long = ref.time_expanded_dijkstra(coll_long, 0)
        assert np.all(d_long <= d_short + 1e-12)


class TestMemeAndHashtagRefs:
    def test_meme_monotone_colored_set(self):
        tpl = make_grid_template(4, 4)
        coll = build_collection(tpl, 5, populate_random(3))
        colored = ref.temporal_meme_bfs(coll, 1)
        # First-colored timesteps are within range and seeds exist at 0 only
        # if any vertex carried the meme at instance 0.
        assert all(0 <= t < 5 for t in colored.values())

    def test_hashtag_counts_manual(self):
        tpl = make_grid_template(2, 2)

        def pop(inst, t):
            tw = [[1, 1, 2], [2], [], [1]] if t == 0 else [[], [], [], []]
            inst.vertex_values.set_column("tweets", ragged(tw))

        coll = build_collection(tpl, 2, pop)
        assert np.array_equal(ref.hashtag_count_series(coll, 1), [3, 0])
        assert np.array_equal(ref.hashtag_count_series(coll, 2), [2, 0])
