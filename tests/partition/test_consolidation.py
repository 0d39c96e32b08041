"""One piece per partition: the stray-piece join and what the partitioner
leaves behind (arXiv:1508.04265 — a partition's subgraph count sets its
per-superstep load)."""

import time

import numpy as np
import pytest

from repro.generators import road_network, smallworld_network
from repro.kernels.csr import slot_sources
from repro.partition import BFSPartitioner, HashPartitioner, subgraph_labels, validate_assignment
from repro.partition.metis_like import (
    MetisLikePartitioner,
    _join_stray_pieces,
    _Level,
    _symmetric_weighted_adjacency,
)
from repro.partition.refine import edge_cut_weight
from tests.partition.test_refine import rebalance
from tests.conftest import make_grid_template, make_random_template


def _level(tpl):
    adj = _symmetric_weighted_adjacency(tpl)
    return _Level(adj, np.ones(tpl.num_vertices), None, slot_sources(adj.indptr))


def _cut(tpl, assignment):
    """Cut weight of an assignment (unit edge weights)."""
    return edge_cut_weight(*_symmetric_weighted_adjacency(tpl), np.asarray(assignment))


def _strip_cut(tpl, k):
    """Cut of k contiguous id ranges: k row strips of the road generator's grid."""
    return _cut(tpl, np.arange(tpl.num_vertices) * k // tpl.num_vertices)


def _within_cap(tpl, assignment, k, imbalance=1.03):
    return np.bincount(assignment, minlength=k).max() <= imbalance * tpl.num_vertices / k


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_never_increases_cut(seed):
    """A stray piece has no local edge to the rest of its partition, so
    joining it to the partition it shares the most edges with cuts less."""
    tpl = make_random_template(400, 700, np.random.default_rng(seed))
    k = 4
    for base in (HashPartitioner(seed=seed).assign(tpl, k), BFSPartitioner(seed=seed).assign(tpl, k)):
        joined = _join_stray_pieces(_level(tpl), np.asarray(base), k)
        if joined is None:
            continue
        validate_assignment(tpl, joined, k)
        assert _cut(tpl, joined) < _cut(tpl, base)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_respects_cap(seed):
    tpl = make_random_template(400, 700, np.random.default_rng(seed))
    a = MetisLikePartitioner(seed=seed).assign(tpl, 4)
    assert _within_cap(tpl, a, 4)


def test_reduces_fragment_spread():
    """On a graph of many components a partition may keep several pieces,
    but none that could still join a neighbour."""
    tpl = make_random_template(600, 500, np.random.default_rng(7))  # sparse: many components
    k = 4
    a = MetisLikePartitioner(seed=7).assign(tpl, k)
    assert _join_stray_pieces(_level(tpl), a, k) is None
    assert _within_cap(tpl, a, k)


def test_connected_graph_untouched():
    """A connected graph comes out as exactly one subgraph per partition."""
    tpl = make_grid_template(12, 12)
    a = MetisLikePartitioner(seed=1).assign(tpl, 4)
    assert subgraph_labels(tpl, a)[0] == 4


@pytest.mark.parametrize("k", [2, 3, 6, 9])
def test_carn_20k_one_piece_near_the_strip_cut(k):
    for seed in range(12):
        tpl = road_network(20_000, seed=seed)
        p = MetisLikePartitioner(seed=seed)
        a = p.assign(tpl, k)
        assert subgraph_labels(tpl, a)[0] == k, seed
        assert _within_cap(tpl, a, k), seed
        assert _cut(tpl, a) <= 1.25 * _strip_cut(tpl, k), seed


def test_carn_200k_one_piece_per_partition():
    for seed in range(12):
        tpl = road_network(200_000, seed=seed)
        a = MetisLikePartitioner(seed=seed).assign(tpl, 6)
        assert subgraph_labels(tpl, a)[0] == 6, seed
        assert _within_cap(tpl, a, 6), seed


# Cut and subgraph count the fragment-folding partitioner (db51b8d) reached
# on WIKI 100k, k=6, at the seeds test_pinned_partitions.py pins.
WIKI_100K_BEFORE = {1: (82_249, 154), 7: (82_902, 214)}


@pytest.mark.parametrize("seed", WIKI_100K_BEFORE)
def test_wiki_100k_no_worse(seed):
    tpl = smallworld_network(100_000, seed=seed)
    p = MetisLikePartitioner(seed=seed)
    a = p.assign(tpl, 6)
    cut, pieces = WIKI_100K_BEFORE[seed]
    assert _cut(tpl, a) <= cut
    assert subgraph_labels(tpl, a)[0] <= pieces
    assert _within_cap(tpl, a, 6)


def test_balancing_a_30_percent_overload_takes_seconds():
    """The balance step is array work per round: one partition 30 % over
    the cap on CARN 200k is fixed in seconds, where a vertex-at-a-time
    loop (O(moves · n)) takes many minutes."""
    tpl = road_network(200_000, seed=3)
    adj = _symmetric_weighted_adjacency(tpl)
    n, k = tpl.num_vertices, 6
    cap = 1.03 * n / k
    first = int(1.3 * cap)  # row strips, the first one 30 % over the cap
    a = np.empty(n, dtype=np.int64)
    a[:first] = 0
    a[first:] = 1 + np.arange(n - first) * (k - 1) // (n - first)
    t0 = time.perf_counter()
    out = rebalance(adj.indptr, adj.indices, adj.data, np.ones(n), a, k, cap)
    assert time.perf_counter() - t0 < 10.0
    assert np.bincount(out, minlength=k).max() <= cap


def test_carn_20k_partitions_into_k_subgraphs_at_balance_1_03():
    """No consolidation switch or fragment threshold comes back."""
    from repro.partition import partition_graph

    assert not {"subgraph_aware", "fragment_fraction"} & set(vars(MetisLikePartitioner()))
    tpl = road_network(20_000, seed=1)
    for k in (3, 6, 9):
        pg = partition_graph(tpl, k, MetisLikePartitioner(seed=1))
        largest = np.bincount(pg.vertex_partition, minlength=k).max()
        assert pg.num_subgraphs == k and largest <= 1.03 * tpl.num_vertices / k, k
