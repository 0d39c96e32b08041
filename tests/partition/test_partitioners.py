"""Tests for the hash, BFS, and METIS-like partitioners."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import GraphTemplate
from repro.partition import (
    BFSPartitioner,
    HashPartitioner,
    MetisLikePartitioner,
    edge_cut_fraction,
    partition_graph,
    validate_assignment,
)
from tests.conftest import make_grid_template, make_random_template

ALL_PARTITIONERS = [
    HashPartitioner(),
    HashPartitioner(seed=3),
    BFSPartitioner(seed=1),
    MetisLikePartitioner(seed=1),
]


@pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=lambda p: f"{type(p).__name__}")
class TestCommonInvariants:
    def test_assignment_valid(self, partitioner):
        tpl = make_grid_template(6, 6)
        for k in (1, 2, 5):
            a = partitioner.assign(tpl, k)
            validate_assignment(tpl, a, k)

    def test_deterministic(self, partitioner):
        tpl = make_grid_template(6, 6)
        a1 = partitioner.assign(tpl, 4)
        a2 = partitioner.assign(tpl, 4)
        assert np.array_equal(a1, a2)

    def test_single_partition(self, partitioner):
        tpl = make_grid_template(4, 4)
        a = partitioner.assign(tpl, 1)
        assert np.all(a == 0)

    def test_invalid_k(self, partitioner):
        tpl = make_grid_template(3, 3)
        with pytest.raises(ValueError):
            partitioner.assign(tpl, 0)

    def test_all_partitions_used(self, partitioner):
        tpl = make_grid_template(8, 8)
        a = partitioner.assign(tpl, 4)
        assert set(np.unique(a)) == {0, 1, 2, 3}


class TestHashPartitioner:
    def test_perfect_balance_seed0(self):
        tpl = make_grid_template(10, 10)
        a = HashPartitioner().assign(tpl, 4)
        counts = np.bincount(a, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_seed_changes_layout(self):
        tpl = make_grid_template(10, 10)
        a = HashPartitioner(seed=0).assign(tpl, 4)
        b = HashPartitioner(seed=9).assign(tpl, 4)
        assert not np.array_equal(a, b)


class TestBFSPartitioner:
    def test_balance_respected(self):
        tpl = make_grid_template(12, 12)
        p = BFSPartitioner(seed=2, imbalance=1.05)
        a = p.assign(tpl, 4)
        counts = np.bincount(a, minlength=4)
        assert counts.max() <= np.ceil(1.05 * tpl.num_vertices / 4)

    def test_bad_imbalance(self):
        with pytest.raises(ValueError):
            BFSPartitioner(imbalance=0.9)

    def test_better_cut_than_hash_on_grid(self):
        tpl = make_grid_template(15, 15)
        bfs_cut = edge_cut_fraction(tpl, BFSPartitioner(seed=1).assign(tpl, 4))
        hash_cut = edge_cut_fraction(tpl, HashPartitioner(seed=1).assign(tpl, 4))
        assert bfs_cut < hash_cut

    def test_disconnected_graph_covered(self, rng):
        tpl = make_random_template(40, 20, rng)  # likely disconnected
        a = BFSPartitioner(seed=0).assign(tpl, 3)
        validate_assignment(tpl, a, 3)

    def test_empty_graph(self):
        from repro.graph import GraphTemplate

        tpl = GraphTemplate(0, [], [])
        assert len(BFSPartitioner().assign(tpl, 2)) == 0


class TestMetisLike:
    def test_better_cut_than_hash_on_grid(self):
        tpl = make_grid_template(15, 15)
        metis_cut = edge_cut_fraction(tpl, MetisLikePartitioner(seed=1).assign(tpl, 4))
        hash_cut = edge_cut_fraction(tpl, HashPartitioner(seed=1).assign(tpl, 4))
        assert metis_cut < 0.5 * hash_cut

    def test_balance_respected(self):
        tpl = make_grid_template(14, 14)
        p = MetisLikePartitioner(seed=1, imbalance=1.03)
        a = p.assign(tpl, 4)
        counts = np.bincount(a, minlength=4)
        # Allow small slack: multilevel projection can overshoot marginally.
        assert counts.max() <= np.ceil(1.10 * tpl.num_vertices / 4)

    def test_k_greater_than_n(self):
        tpl = make_grid_template(2, 2)
        a = MetisLikePartitioner().assign(tpl, 10)
        validate_assignment(tpl, a, 10)

    def test_directed_graph(self, rng):
        tpl = make_random_template(60, 150, rng, directed=True)
        a = MetisLikePartitioner(seed=4).assign(tpl, 3)
        validate_assignment(tpl, a, 3)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(10, 60),
        m=st.integers(10, 120),
        k=st.integers(2, 5),
        seed=st.integers(0, 2**16),
    )
    def test_random_graphs_valid(self, n, m, k, seed):
        tpl = make_random_template(n, m, np.random.default_rng(seed))
        a = MetisLikePartitioner(seed=seed).assign(tpl, k)
        validate_assignment(tpl, a, k)


class TestMetisLikeDegenerateTemplates:
    """No off-diagonal adjacency: the connectivity matrix has no slot to take
    a float dtype from, and ``rebalance`` masks it with ``-inf``."""

    @pytest.mark.parametrize(
        "template",
        [GraphTemplate(5, [], []), GraphTemplate(3, [0, 1], [0, 1]), GraphTemplate(9, [4], [4])],
        ids=["edgeless", "self-loops-only", "one-loop"],
    )
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_partitions_within_the_cap(self, template, k):
        pg = partition_graph(template, k, MetisLikePartitioner(seed=1))
        n = template.num_vertices
        sizes = np.bincount(pg.vertex_partition, minlength=k)
        assert sizes.sum() == n
        # Unit vertices: the cap, rounded up to what whole vertices allow.
        assert sizes.max() <= max(math.ceil(n / k), math.floor(1.03 * n / k))
        assert pg.num_subgraphs == n  # one subgraph per vertex
        assert sorted(len(sg.vertices) for sg in pg.subgraphs) == [1] * n


class TestSmallWorldVsRoad:
    """Table 2's qualitative claim: small-world cuts are much larger and grow with k."""

    def test_cut_regimes(self):
        from repro.generators import road_network, smallworld_network

        carn = road_network(3000, seed=1)
        wiki = smallworld_network(3000, seed=1)
        p = MetisLikePartitioner(seed=1)
        carn_cuts = [edge_cut_fraction(carn, p.assign(carn, k)) for k in (3, 6, 9)]
        wiki_cuts = [edge_cut_fraction(wiki, p.assign(wiki, k)) for k in (3, 6, 9)]
        # WIKI cut at every k far exceeds CARN's.
        for c, w in zip(carn_cuts, wiki_cuts):
            assert w > 4 * c
        # Cuts grow with k on both graphs.
        assert carn_cuts[0] < carn_cuts[2]
        assert wiki_cuts[0] < wiki_cuts[2]
