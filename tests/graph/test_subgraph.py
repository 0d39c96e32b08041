"""Unit tests for the Subgraph view (numbering, adjacency, remote edges)."""

import numpy as np
import pytest

from repro.graph import RemoteEdges, Subgraph


def make_subgraph():
    """Subgraph over global vertices {2, 5, 9}: path 2—5—9, remote 9→12."""
    vertices = np.array([2, 5, 9])
    # Local CSR over local numbers 0(=2), 1(=5), 2(=9).
    indptr = np.array([0, 1, 3, 4])
    indices = np.array([1, 0, 2, 1])
    edge_index = np.array([10, 10, 11, 11])  # global edge ids of (2,5) and (5,9)
    remote = RemoteEdges(
        src_local=np.array([2]),
        dst_global=np.array([12]),
        dst_subgraph=np.array([3]),
        dst_partition=np.array([1]),
        edge_index=np.array([12]),
    )
    return Subgraph(7, 0, vertices, indptr, indices, edge_index, remote)


class TestNumbering:
    def test_local_of_scalar(self):
        sg = make_subgraph()
        assert sg.local_of(5) == 1
        assert sg.local_of(9) == 2

    def test_local_of_array(self):
        sg = make_subgraph()
        assert np.array_equal(sg.local_of(np.array([9, 2])), [2, 0])

    def test_local_of_missing_raises(self):
        sg = make_subgraph()
        with pytest.raises(KeyError):
            sg.local_of(3)
        with pytest.raises(KeyError):
            sg.local_of(np.array([2, 99]))

    def test_global_of(self):
        sg = make_subgraph()
        assert sg.global_of(0) == 2
        assert np.array_equal(sg.global_of(np.array([2, 1])), [9, 5])

    def test_contains(self):
        sg = make_subgraph()
        assert sg.contains(5) and not sg.contains(6)
        assert np.array_equal(sg.contains(np.array([2, 3, 9])), [True, False, True])

    def test_contains_beyond_last(self):
        sg = make_subgraph()
        assert not sg.contains(100)

    def test_unsorted_vertices_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Subgraph(0, 0, np.array([5, 2]), np.array([0, 0, 0]), np.array([]), np.array([]))


class TestAdjacency:
    def test_sizes(self):
        sg = make_subgraph()
        assert sg.num_vertices == 3
        assert sg.num_local_edges == 4
        assert sg.num_remote_edges == 1

    def test_neighbors(self):
        """A vertex's local neighbors are its ``indptr`` slice of ``indices``."""
        sg = make_subgraph()
        assert np.array_equal(sg.indices[sg.indptr[1] : sg.indptr[2]], [0, 2])
        assert np.array_equal(sg.indices[sg.indptr[0] : sg.indptr[1]], [1])

    def test_remote_edges_of(self):
        """A vertex's remote edges are the rows of ``remote`` whose ``src_local`` it is."""
        sg = make_subgraph()
        rows = np.flatnonzero(sg.remote.src_local == 2)
        assert np.array_equal(rows, [0])
        assert sg.remote.dst_global[rows[0]] == 12
        assert not (sg.remote.src_local == 0).any()

    def test_neighbor_subgraphs(self):
        sg = make_subgraph()
        assert np.array_equal(sg.neighbor_subgraphs, [3])

    def test_all_neighbor_subgraphs_includes_incoming(self):
        sg = Subgraph(
            0,
            0,
            np.array([1]),
            np.array([0, 0]),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            None,
            in_neighbor_subgraphs=np.array([5]),
        )
        assert np.array_equal(sg.all_neighbor_subgraphs, [5])

    def test_indptr_length_validated(self):
        with pytest.raises(ValueError, match="indptr"):
            Subgraph(0, 0, np.array([1, 2]), np.array([0, 0]), np.array([]), np.array([]))

    def test_slot_src_is_each_slots_local_source(self):
        sg = make_subgraph()
        assert sg.slot_src.tolist() == [0, 1, 1, 2]
        assert sg.slot_src is sg.slot_src  # built once


class TestPickling:
    def test_the_lazy_tables_stay_out_of_the_pickle(self):
        """A subgraph ships in every agent's init message: the same bytes
        before and after its lookup table and slot sources are built, and
        the clone builds its own on first use."""
        import pickle

        sg = make_subgraph()
        unbuilt = pickle.dumps(sg)
        assert sg.local_of(9) == 2 and sg.slot_src.size == 4
        assert sg._local_table is not None and sg._slot_src is not None
        assert pickle.dumps(sg) == unbuilt
        clone = pickle.loads(unbuilt)
        assert clone._local_table is None and clone._slot_src is None
        assert clone.local_of(9) == 2 and not clone.contains(3)
        assert clone.slot_src.tolist() == sg.slot_src.tolist()
        assert clone.remote.dst_global.tolist() == [12]


class TestRemoteEdges:
    def test_empty(self):
        r = RemoteEdges.empty()
        assert len(r) == 0

    def test_len(self):
        sg = make_subgraph()
        assert len(sg.remote) == 1
