"""Tests for FM boundary refinement and rebalancing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.sparse as sp

from repro.kernels.csr import slot_sources
from repro.partition.refine import (
    _balance,
    _Refinement,
    edge_cut_weight,
    partition_connectivity,
    refine,
)
from tests.conftest import make_grid_template, make_random_template


def rebalance(indptr, indices, weights, vertex_weights, assignment, k, cap):
    """The balance step alone: ``assignment`` with every partition's vertex
    weight brought to at most ``cap`` where single-vertex moves can."""
    state = _Refinement(
        indptr, indices, weights, vertex_weights, assignment, k, slot_sources(indptr)
    )
    _balance(state, cap)
    return state.assignment


def grid_csr(rows, cols):
    tpl = make_grid_template(rows, cols)
    n = tpl.num_vertices
    src, dst = tpl.edge_src, tpl.edge_dst
    data = np.ones(2 * len(src))
    adj = sp.coo_matrix(
        (data, (np.concatenate([src, dst]), np.concatenate([dst, src]))), shape=(n, n)
    ).tocsr()
    return adj


class TestConnectivityAndCut:
    def test_connectivity_matrix(self):
        adj = grid_csr(2, 2)  # square: 0-1, 0-2, 1-3, 2-3
        assignment = np.array([0, 0, 1, 1])
        conn = partition_connectivity(adj.indptr, adj.indices, adj.data, assignment, 2)
        # Vertex 0 connects to partition 0 (vertex 1) and partition 1 (vertex 2).
        assert conn[0, 0] == 1 and conn[0, 1] == 1
        assert conn[3, 1] == 1 and conn[3, 0] == 1

    def test_edge_cut_weight(self):
        adj = grid_csr(2, 2)
        assert edge_cut_weight(adj.indptr, adj.indices, adj.data, np.array([0, 0, 1, 1])) == 2.0
        assert edge_cut_weight(adj.indptr, adj.indices, adj.data, np.array([0, 0, 0, 0])) == 0.0
        assert edge_cut_weight(adj.indptr, adj.indices, adj.data, np.array([0, 1, 1, 0])) == 4.0


class TestRefine:
    def test_never_worse_than_feasible_input(self):
        """Never-worse holds relative to the balance-feasible starting point
        (an infeasible input is first force-rebalanced, which may raise the
        cut — balance is a hard constraint)."""
        adj = grid_csr(8, 8)
        n = adj.shape[0]
        vw = np.ones(n)
        rng = np.random.default_rng(0)
        for trial in range(5):
            a0 = rng.integers(0, 3, n).astype(np.int64)
            feasible = rebalance(
                adj.indptr, adj.indices, adj.data, vw, a0, 3, 1.2 * n / 3
            )
            before = edge_cut_weight(adj.indptr, adj.indices, adj.data, feasible)
            a1 = refine(adj.indptr, adj.indices, adj.data, vw, feasible, 3, imbalance=1.2)
            after = edge_cut_weight(adj.indptr, adj.indices, adj.data, a1)
            assert after <= before

    def test_improves_random_assignment_substantially(self):
        adj = grid_csr(10, 10)
        vw = np.ones(100)
        a0 = np.random.default_rng(1).integers(0, 2, 100).astype(np.int64)
        before = edge_cut_weight(adj.indptr, adj.indices, adj.data, a0)
        a1 = refine(adj.indptr, adj.indices, adj.data, vw, a0, 2, imbalance=1.1, passes=10)
        after = edge_cut_weight(adj.indptr, adj.indices, adj.data, a1)
        assert after < 0.6 * before

    def test_respects_balance_cap(self):
        adj = grid_csr(8, 8)
        n = adj.shape[0]
        vw = np.ones(n)
        a0 = np.random.default_rng(2).integers(0, 2, n).astype(np.int64)
        a1 = refine(adj.indptr, adj.indices, adj.data, vw, a0, 2, imbalance=1.05)
        counts = np.bincount(a1, minlength=2)
        assert counts.max() <= np.ceil(1.05 * n / 2)

    def test_input_not_mutated(self):
        adj = grid_csr(5, 5)
        a0 = np.random.default_rng(3).integers(0, 2, 25).astype(np.int64)
        snapshot = a0.copy()
        refine(adj.indptr, adj.indices, adj.data, np.ones(25), a0, 2)
        assert np.array_equal(a0, snapshot)


class TestRebalance:
    def test_fixes_overload(self):
        adj = grid_csr(6, 6)
        n = adj.shape[0]
        vw = np.ones(n)
        a = np.zeros(n, dtype=np.int64)  # everything in partition 0
        cap = 1.03 * n / 2
        out = rebalance(adj.indptr, adj.indices, adj.data, vw, a, 2, cap)
        counts = np.bincount(out, minlength=2)
        assert counts[0] <= cap

    def test_an_unreachable_cap_makes_nothing_worse(self):
        """43 vertices in 9 parts cannot all fit 1.03 * 43 / 9 = 4.92: with
        no partition able to take a vertex, balancing must not pile the
        excess onto the lightest one."""
        rng = np.random.default_rng(937748064)
        tpl = make_random_template(43, 88, rng)
        src, dst = tpl.edge_src, tpl.edge_dst
        adj = sp.coo_matrix(
            (np.ones(2 * len(src)), (np.concatenate([src, dst]), np.concatenate([dst, src]))),
            shape=(43, 43),
        ).tocsr()
        a = np.repeat(np.arange(9), [5, 5, 5, 5, 5, 5, 4, 5, 4]).astype(np.int64)
        out = rebalance(adj.indptr, adj.indices, adj.data, np.ones(43), a, 9, 1.03 * 43 / 9)
        assert np.bincount(out, minlength=9).max() <= 5

    def test_noop_when_balanced(self):
        adj = grid_csr(4, 4)
        a = (np.arange(16) % 2).astype(np.int64)
        out = rebalance(adj.indptr, adj.indices, adj.data, np.ones(16), a, 2, 9.0)
        assert np.array_equal(out, a)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(2, 4))
    def test_refine_valid_on_random_graphs(self, seed, k):
        rng = np.random.default_rng(seed)
        tpl = make_random_template(30, 60, rng)
        n = tpl.num_vertices
        src, dst = tpl.edge_src, tpl.edge_dst
        if len(src) == 0:
            return
        adj = sp.coo_matrix(
            (
                np.ones(2 * len(src)),
                (np.concatenate([src, dst]), np.concatenate([dst, src])),
            ),
            shape=(n, n),
        ).tocsr()
        a0 = rng.integers(0, k, n).astype(np.int64)
        # Compare against the balance-feasible starting point: forcing an
        # over-capacity input under the cap may legitimately raise the cut.
        feasible = rebalance(
            adj.indptr, adj.indices, adj.data, np.ones(n), a0, k, 1.03 * n / k
        )
        a1 = refine(adj.indptr, adj.indices, adj.data, np.ones(n), feasible, k)
        assert a1.min() >= 0 and a1.max() < k
        assert edge_cut_weight(adj.indptr, adj.indices, adj.data, a1) <= edge_cut_weight(
            adj.indptr, adj.indices, adj.data, feasible
        )
