"""Tests for subgraph decomposition — the Section II-C invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.partition import (
    HashPartitioner,
    MetisLikePartitioner,
    decompose,
    partition_graph,
    subgraph_labels,
)
from tests.conftest import make_grid_template, make_random_template


def check_decomposition_invariants(tpl, pg, assignment):
    """The full Section II-C contract, asserted structurally."""
    n = tpl.num_vertices
    # 1. Every vertex is in exactly one subgraph, in its assigned partition.
    seen = np.zeros(n, dtype=int)
    for sg in pg.subgraphs:
        seen[sg.vertices] += 1
        assert np.all(assignment[sg.vertices] == sg.partition_id)
    assert np.all(seen == 1)
    # 2. vertex_subgraph / vertex_partition agree with the subgraph objects.
    for sg in pg.subgraphs:
        assert np.all(pg.vertex_subgraph[sg.vertices] == sg.subgraph_id)
        assert np.all(pg.vertex_partition[sg.vertices] == sg.partition_id)
    # 3. Local adjacency entries stay inside the subgraph; remote ones leave
    #    the partition; together they cover the template adjacency exactly.
    indptr, indices, eidx = tpl.adjacency
    total_slots = 0
    for sg in pg.subgraphs:
        for lv in range(sg.num_vertices):
            gv = sg.vertices[lv]
            local_rows = sg.indices[sg.indptr[lv] : sg.indptr[lv + 1]]
            local_dst = set(int(sg.vertices[w]) for w in local_rows)
            remote_rows = np.flatnonzero(sg.remote.src_local == lv)
            remote_dst = set(int(sg.remote.dst_global[r]) for r in remote_rows)
            tpl_dst = [int(indices[s]) for s in range(indptr[gv], indptr[gv + 1])]
            # Multi-edges: compare as multisets via counts.
            assert sorted(local_dst | remote_dst) == sorted(set(tpl_dst))
            for d in local_dst:
                assert assignment[d] == sg.partition_id
            for d in remote_dst:
                assert assignment[d] != sg.partition_id
            total_slots += len(local_rows) + len(remote_rows)
    assert total_slots == len(indices)
    # 4. Remote edge metadata is consistent.
    for sg in pg.subgraphs:
        r = sg.remote
        for i in range(len(r)):
            dst = int(r.dst_global[i])
            assert pg.vertex_subgraph[dst] == r.dst_subgraph[i]
            assert pg.vertex_partition[dst] == r.dst_partition[i]
            assert int(sg.vertices[r.src_local[i]]) in (
                int(tpl.edge_src[r.edge_index[i]]),
                int(tpl.edge_dst[r.edge_index[i]]),
            )
    # 5. Subgraphs are weakly connected through local edges.
    for sg in pg.subgraphs:
        if sg.num_vertices <= 1:
            continue
        # BFS over local adjacency (treat as undirected for weak connectivity).
        undirected = [set() for _ in range(sg.num_vertices)]
        for lv in range(sg.num_vertices):
            for w in sg.indices[sg.indptr[lv] : sg.indptr[lv + 1]]:
                undirected[lv].add(int(w))
                undirected[int(w)].add(lv)
        seen_local = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in undirected[u]:
                if w not in seen_local:
                    seen_local.add(w)
                    stack.append(w)
        assert len(seen_local) == sg.num_vertices


class TestDecompose:
    def test_grid_hash(self):
        tpl = make_grid_template(5, 6)
        a = HashPartitioner(seed=1).assign(tpl, 3)
        pg = decompose(tpl, a, 3)
        check_decomposition_invariants(tpl, pg, a)

    def test_grid_metis(self):
        tpl = make_grid_template(6, 6)
        a = MetisLikePartitioner(seed=1).assign(tpl, 3)
        pg = decompose(tpl, a, 3)
        check_decomposition_invariants(tpl, pg, a)

    def test_directed_graph(self, rng):
        tpl = make_random_template(40, 100, rng, directed=True)
        a = HashPartitioner(seed=2).assign(tpl, 3)
        pg = decompose(tpl, a, 3)
        check_decomposition_invariants(tpl, pg, a)

    def test_in_neighbor_subgraphs_directed(self):
        from repro.graph import GraphTemplate

        # 0 -> 1 directed, vertices in different partitions.
        tpl = GraphTemplate(2, [0], [1], directed=True)
        pg = decompose(tpl, np.array([0, 1]), 2)
        sg_of_0, sg_of_1 = (pg.subgraphs[pg.vertex_subgraph[v]] for v in (0, 1))
        assert np.array_equal(sg_of_0.neighbor_subgraphs, [sg_of_1.subgraph_id])
        assert np.array_equal(sg_of_1.in_neighbor_subgraphs, [sg_of_0.subgraph_id])
        assert len(sg_of_1.neighbor_subgraphs) == 0

    def test_subgraph_ids_partition_major(self):
        tpl = make_grid_template(6, 6)
        pg = partition_graph(tpl, 3)
        parts = [sg.partition_id for sg in pg.subgraphs]
        assert parts == sorted(parts)

    def test_deterministic_labels(self):
        tpl = make_grid_template(6, 6)
        a = HashPartitioner(seed=1).assign(tpl, 3)
        n1, l1 = subgraph_labels(tpl, a)
        n2, l2 = subgraph_labels(tpl, a)
        assert n1 == n2 and np.array_equal(l1, l2)

    def test_empty_partition_allowed(self):
        from repro.graph import GraphTemplate

        tpl = GraphTemplate(2, [0], [1])
        pg = decompose(tpl, np.array([0, 0]), 3)
        assert pg.partitions[1].num_subgraphs == 0
        assert pg.partitions[2].num_subgraphs == 0
        assert pg.num_subgraphs == 1

    def test_isolated_vertices_are_singleton_subgraphs(self):
        from repro.graph import GraphTemplate

        tpl = GraphTemplate(4, [0], [1])  # 2 and 3 isolated
        pg = decompose(tpl, np.zeros(4, dtype=np.int64), 1)
        sizes = sorted(sg.num_vertices for sg in pg.subgraphs)
        assert sizes == [1, 1, 2]

    def test_bad_assignment_shape(self):
        tpl = make_grid_template(3, 3)
        with pytest.raises(ValueError):
            decompose(tpl, np.zeros(5, dtype=np.int64), 2)

    def test_assignment_out_of_range(self):
        tpl = make_grid_template(3, 3)
        with pytest.raises(ValueError):
            decompose(tpl, np.full(9, 5, dtype=np.int64), 2)

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(5, 40),
        m=st.integers(4, 80),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        directed=st.booleans(),
    )
    def test_invariants_random(self, n, m, k, seed, directed):
        rng = np.random.default_rng(seed)
        tpl = make_random_template(n, m, rng, directed=directed)
        a = HashPartitioner(seed=seed).assign(tpl, k)
        pg = decompose(tpl, a, k)
        check_decomposition_invariants(tpl, pg, a)


class TestPartitionedGraphAPI:
    def test_lookups(self):
        tpl = make_grid_template(4, 4)
        pg = partition_graph(tpl, 2)
        for v in range(tpl.num_vertices):
            sg = pg.subgraphs[pg.vertex_subgraph[v]]
            assert sg.contains(v)
            assert pg.vertex_partition[v] == sg.partition_id
            assert pg.subgraph(sg.subgraph_id) is sg

    def test_partition_vertices_sorted_unique(self):
        tpl = make_grid_template(4, 4)
        pg = partition_graph(tpl, 2)
        for part in pg.partitions:
            v = part.vertices
            assert np.all(np.diff(v) > 0)
            assert part.num_vertices == len(v)


def test_the_per_subgraph_loop_finds_rows_by_address():
    """No per-needle binary search once subgraphs are being built:
    ``searchsorted`` costs 47 ns per unsorted needle against < 1 ns through a
    direct-address table (``Subgraph._local_table``)."""
    from tests.test_structure import ROOT

    text = (ROOT / "src/repro/partition/subgraphs.py").read_text()
    start = text.index("for sg_id in range(num_sg)")
    assert "searchsorted" not in text[start:]
