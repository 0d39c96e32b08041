"""Unit tests for GraphTemplate topology and CSR adjacency."""

import numpy as np
import pytest

from repro.graph import AttributeSchema, GraphTemplate


def path_template(n=5, directed=False):
    src = np.arange(n - 1)
    dst = src + 1
    return GraphTemplate(n, src, dst, directed=directed, name="path")


class TestConstruction:
    def test_basic_counts(self):
        tpl = path_template(5)
        assert tpl.num_vertices == 5
        assert tpl.num_edges == 4
        assert not tpl.directed

    def test_default_ids(self):
        tpl = path_template(4)
        assert np.array_equal(tpl.vertex_ids, np.arange(4))
        assert np.array_equal(tpl.edge_ids, np.arange(3))

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            GraphTemplate(3, [0], [3])
        with pytest.raises(ValueError, match="out of range"):
            GraphTemplate(3, [-1], [0])

    def test_mismatched_endpoint_arrays(self):
        with pytest.raises(ValueError):
            GraphTemplate(3, [0, 1], [1])

    def test_negative_vertices(self):
        with pytest.raises(ValueError):
            GraphTemplate(-1, [], [])

    def test_bad_vertex_ids_length(self):
        with pytest.raises(ValueError, match="vertex_ids"):
            GraphTemplate(3, [0], [1], vertex_ids=np.arange(2))

    def test_bad_edge_ids_length(self):
        with pytest.raises(ValueError, match="edge_ids"):
            GraphTemplate(3, [0], [1], edge_ids=np.arange(2))

    def test_empty_graph(self):
        tpl = GraphTemplate(0, [], [])
        assert tpl.num_vertices == 0 and tpl.num_edges == 0
        assert tpl.stats()["avg_degree"] == 0.0


class TestUndirectedAdjacency:
    def test_both_directions_present(self):
        tpl = path_template(3)
        assert set(tpl.out_neighbors(1)) == {0, 2}
        assert set(tpl.out_neighbors(0)) == {1}

    def test_edge_index_shared_both_ways(self):
        tpl = path_template(3)
        # Edge 0 is (0,1): must appear once from 0 and once from 1.
        assert 0 in tpl.out_edges(0)
        assert 0 in tpl.out_edges(1)

    def test_degrees(self):
        tpl = path_template(4)
        assert np.array_equal(tpl.degrees, [1, 2, 2, 1])
        assert tpl.degree(1) == 2

    def test_self_loop_appears_once(self):
        tpl = GraphTemplate(2, [0, 0], [0, 1])
        assert list(tpl.out_neighbors(0)).count(0) == 1
        assert tpl.degree(0) == 2  # loop + edge to 1


class TestDirectedAdjacency:
    def test_out_only_follows_direction(self):
        tpl = path_template(3, directed=True)
        assert set(tpl.out_neighbors(0)) == {1}
        assert set(tpl.out_neighbors(2)) == set()

    def test_degree_is_out_degree(self):
        tpl = path_template(3, directed=True)
        assert tpl.degree(2) == 0 and tpl.degree(0) == 1


class TestHelpers:
    def test_undirected_edge_view(self):
        tpl = path_template(3)
        s, d = tpl.undirected_edge_view()
        assert np.array_equal(s, [0, 1]) and np.array_equal(d, [1, 2])

    def test_stats(self):
        stats = path_template(5).stats()
        assert stats["vertices"] == 5 and stats["edges"] == 4
        assert stats["avg_degree"] == pytest.approx(1.6)
        assert stats["max_degree"] == 2

    def test_equals(self):
        a, b = path_template(4), path_template(4)
        assert a.equals(b)
        c = path_template(5)
        assert not a.equals(c)

    def test_equals_schema_sensitive(self):
        a = path_template(3)
        b = GraphTemplate(3, [0, 1], [1, 2], vertex_schema=AttributeSchema(["x"]))
        assert not a.equals(b)

    def test_adjacency_csr_consistency(self, rng):
        # Every (src, dst, edge) triple in CSR matches the edge arrays.
        n, m = 30, 60
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        tpl = GraphTemplate(n, src, dst, directed=True)
        indptr, indices, eidx = tpl.adjacency
        for v in range(n):
            for slot in range(indptr[v], indptr[v + 1]):
                e = eidx[slot]
                assert tpl.edge_src[e] == v
                assert tpl.edge_dst[e] == indices[slot]


_CSR_SLOTS = ("_adj_indptr", "_adj_indices", "_adj_edges")


class TestLazyAdjacency:
    """The CSR is built on first use: a template loaded only to back GoFS
    views (``GoFS.partition_views`` → ``load_template``) never pays for it."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_no_csr_until_read_then_equal_to_eager(self, directed, rng, tmp_path):
        import pickle

        from repro.storage.serde import load_template, save_template

        n, m = 25, 70
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        src[:3] = dst[:3]  # self-loops
        save_template(tmp_path / "tpl.gsl", GraphTemplate(n, src, dst, directed=directed))
        tpl = load_template(tmp_path / "tpl.gsl")
        assert all(getattr(tpl, slot) is None for slot in _CSR_SLOTS)
        unbuilt = pickle.dumps(tpl)
        assert all(getattr(pickle.loads(unbuilt), slot) is None for slot in _CSR_SLOTS)

        want_out = tpl._build_csr()  # what ``__init__`` used to build eagerly
        for got, want in zip(tpl.adjacency, want_out):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        for v in range(n):
            assert tpl.out_neighbors(v).tolist() == want_out[1][want_out[0][v]:want_out[0][v + 1]].tolist()
            assert tpl.out_edges(v).tolist() == want_out[2][want_out[0][v]:want_out[0][v + 1]].tolist()
            assert tpl.degree(v) == want_out[0][v + 1] - want_out[0][v]
        # Pickling carries nothing built: the same bytes as before any was,
        # and the clone builds its own on first use.
        assert pickle.dumps(tpl) == unbuilt
        clone = pickle.loads(unbuilt)
        assert clone.equals(tpl)
        assert [a.tolist() for a in clone.adjacency] == [a.tolist() for a in tpl.adjacency]

    def test_threads_racing_to_build_each_get_a_whole_correct_triple(self, rng):
        """Threads may share one template (worker agents served as threads of
        one process do): readers that race on the first ``adjacency`` never
        see a half-filled triple."""
        import sys
        import threading

        n, m = 400, 3000
        tpl = GraphTemplate(n, rng.integers(0, n, m), rng.integers(0, n, m), directed=True)
        want = tpl._build_csr()
        got, start = [], threading.Barrier(8)

        def read():
            start.wait(timeout=10)
            got.append(tpl.adjacency)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 8
        for triple in got:
            assert all(a is not None and a.tolist() == w.tolist() for a, w in zip(triple, want))
