"""Tests for temporal reachability and community evolution over is_exists topology."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    CommunityEvolutionComputation,
    TemporalReachabilityComputation,
    community_events,
    largest_subgraph_in_partition,
    reached_timesteps_from_result,
)
from repro.algorithms import reference as ref
from repro.core import run_application
from repro.generators import PeriodicExistencePopulator
from repro.graph import AttributeSchema, AttributeSpec, GraphTemplate, build_collection
from repro.partition import HashPartitioner, partition_graph
from tests.conftest import make_random_template


def evolving_template(n, src, dst, directed=False):
    return GraphTemplate(
        n,
        src,
        dst,
        directed=directed,
        edge_schema=AttributeSchema([AttributeSpec("is_exists", "bool", default=True)]),
    )


def evolving_case(seed, n=30, m=60, T=8, k=3, directed=False):
    raw = make_random_template(n, m, np.random.default_rng(seed), directed=directed)
    tpl = evolving_template(raw.num_vertices, raw.edge_src, raw.edge_dst, directed)
    pop = PeriodicExistencePopulator(tpl, seed=seed, always_on_fraction=0.3, duty=0.5)
    coll = build_collection(tpl, T, pop, lazy=True)
    pg = partition_graph(tpl, k, HashPartitioner(seed=seed))
    return tpl, coll, pg


class TestTemporalReachability:
    def test_hand_crafted_bridge(self):
        """A bridge edge that only exists at t=2 delays the far side to t=2."""
        tpl = evolving_template(4, [0, 1, 2], [1, 2, 3])

        def pop(inst, t):
            exists = np.array([True, t == 2, True])  # 1-2 bridge closed except t=2
            inst.edge_values.set_column("is_exists", exists)

        coll = build_collection(tpl, 4, pop)
        pg = partition_graph(tpl, 2, HashPartitioner())
        res = run_application(TemporalReachabilityComputation(0), pg, coll)
        got = reached_timesteps_from_result(res)
        assert got == {0: 0, 1: 0, 2: 2, 3: 2}

    def test_source_always_reached_at_zero(self):
        tpl, coll, pg = evolving_case(3)
        res = run_application(TemporalReachabilityComputation(5), pg, coll)
        got = reached_timesteps_from_result(res)
        assert got[5] == 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 4), directed=st.booleans())
    def test_matches_reference(self, seed, k, directed):
        tpl, coll, pg = evolving_case(seed, k=k, directed=directed)
        res = run_application(TemporalReachabilityComputation(0), pg, coll)
        got = reached_timesteps_from_result(res)
        want = ref.temporal_reachability(coll, 0)
        assert got == want

    def test_missing_exists_column_means_static(self):
        """Without is_exists, reachability degenerates to one-timestep BFS."""
        raw = make_random_template(20, 40, np.random.default_rng(1))
        tpl = GraphTemplate(20, raw.edge_src, raw.edge_dst)  # no edge schema
        coll = build_collection(tpl, 5)
        pg = partition_graph(tpl, 2, HashPartitioner())
        res = run_application(TemporalReachabilityComputation(0), pg, coll)
        got = reached_timesteps_from_result(res)
        levels = ref.bfs_levels(tpl, 0)
        for v, t in got.items():
            assert t == 0 and np.isfinite(levels[v])
        assert len(got) == int(np.isfinite(levels).sum())

    def test_early_halt_when_everything_reached(self):
        tpl = evolving_template(4, [0, 1, 2], [1, 2, 3])

        def pop(inst, t):
            inst.edge_values.set_column("is_exists", np.ones(3, dtype=bool))

        coll = build_collection(tpl, 20, pop)
        pg = partition_graph(tpl, 2, HashPartitioner())
        res = run_application(TemporalReachabilityComputation(0), pg, coll)
        assert res.halted_early
        assert res.timesteps_executed < 20


class TestCutRowsCloseOnDelivery:
    """A cut row that carried the frontier has reached its head for good
    (heads are marked reached on receipt), so it is closed, and its tail is
    no longer re-rooted for it."""

    #: Remote messages of the case below before delivered cut rows closed.
    PARENT_REMOTE_MESSAGES = 30

    def test_same_reach_fewer_messages_cross(self):
        from repro.generators import paper_datasets
        from repro.partition import MetisLikePartitioner

        carn = paper_datasets(2000, 10)["CARN"]["template"]
        tpl = evolving_template(carn.num_vertices, carn.edge_src, carn.edge_dst, carn.directed)
        coll = build_collection(tpl, 10, PeriodicExistencePopulator(tpl, seed=0), lazy=True)
        pg = partition_graph(tpl, 3, MetisLikePartitioner(seed=0))
        res = run_application(TemporalReachabilityComputation(0), pg, coll)
        assert reached_timesteps_from_result(res) == ref.temporal_reachability(coll, 0)
        remote = res.metrics.total_remote_messages()
        assert remote == 8 < self.PARENT_REMOTE_MESSAGES


class TestCommunityEvents:
    def test_birth(self):
        prev = np.array([0, 1, 2, 3])  # all singletons
        curr = np.array([0, 0, 2, 3])  # {0,1} appears
        e = community_events(prev, curr)
        assert e == {"births": 1, "deaths": 0, "splits": 0, "merges": 0}

    def test_death(self):
        prev = np.array([0, 0, 2, 3])
        curr = np.array([0, 1, 2, 3])
        e = community_events(prev, curr)
        assert e == {"births": 0, "deaths": 1, "splits": 0, "merges": 0}

    def test_merge(self):
        prev = np.array([0, 0, 2, 2])
        curr = np.array([0, 0, 0, 0])
        e = community_events(prev, curr)
        assert e["merges"] == 1 and e["splits"] == 0

    def test_split(self):
        prev = np.array([0, 0, 0, 0])
        curr = np.array([0, 0, 2, 2])
        e = community_events(prev, curr)
        assert e["splits"] == 1 and e["merges"] == 0

    def test_stable(self):
        labels = np.array([0, 0, 2, 2])
        e = community_events(labels, labels)
        assert e == {"births": 0, "deaths": 0, "splits": 0, "merges": 0}

    def test_simultaneous(self):
        prev = np.array([0, 0, 2, 2, 4, 4, 4, 7])
        curr = np.array([0, 0, 0, 0, 4, 4, 6, 6])  # {0,2} merge; {4..} splits
        e = community_events(prev, curr)
        assert e["merges"] == 1
        assert e["splits"] == 1


class TestCommunityEvolution:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), directed=st.booleans())
    def test_labels_match_reference(self, seed, directed):
        tpl, coll, pg = evolving_case(seed, T=6, directed=directed)
        comp = CommunityEvolutionComputation(
            tpl.num_vertices, largest_subgraph_in_partition(pg, 0)
        )
        res = run_application(comp, pg, coll)
        (_sg, summary), = res.merge_outputs
        for t in range(6):
            want = ref.instance_communities(coll, t)
            assert np.array_equal(summary.labels[t], want), f"timestep {t}"

    def test_summary_fields_consistent(self):
        tpl, coll, pg = evolving_case(11, T=6)
        comp = CommunityEvolutionComputation(
            tpl.num_vertices, largest_subgraph_in_partition(pg, 0)
        )
        res = run_application(comp, pg, coll)
        (_sg, s), = res.merge_outputs
        T = s.labels.shape[0]
        assert s.labels.shape == (T, tpl.num_vertices)
        assert len(s.num_communities) == T
        assert len(s.births) == T - 1 == len(s.splits) == len(s.merges) == len(s.deaths)
        # Event counts recomputable from the label matrix.
        for t in range(1, T):
            e = community_events(s.labels[t - 1], s.labels[t])
            assert e["births"] == s.births[t - 1]
            assert e["splits"] == s.splits[t - 1]

    def test_static_topology_no_events(self):
        raw = make_random_template(20, 30, np.random.default_rng(2))
        tpl = evolving_template(20, raw.edge_src, raw.edge_dst)

        def pop(inst, t):
            inst.edge_values.set_column("is_exists", np.ones(tpl.num_edges, dtype=bool))

        coll = build_collection(tpl, 4, pop)
        pg = partition_graph(tpl, 2, HashPartitioner())
        comp = CommunityEvolutionComputation(20, largest_subgraph_in_partition(pg, 0))
        res = run_application(comp, pg, coll)
        (_sg, s), = res.merge_outputs
        assert np.all(s.births == 0) and np.all(s.deaths == 0)
        assert np.all(s.splits == 0) and np.all(s.merges == 0)
        assert len(set(map(tuple, s.labels))) == 1  # identical every timestep


class TestPeriodicExistencePopulator:
    def test_schedule_deterministic_and_periodic(self):
        raw = make_random_template(10, 20, np.random.default_rng(0))
        tpl = evolving_template(10, raw.edge_src, raw.edge_dst)
        pop = PeriodicExistencePopulator(tpl, seed=1, min_period=3, max_period=5)
        a = pop.exists_at(4)
        b = pop.exists_at(4)
        assert np.array_equal(a, b)
        # Period p edges repeat with period p.
        for e in range(tpl.num_edges):
            p = pop.period[e]
            assert pop.exists_at(2)[e] == pop.exists_at(2 + p)[e]

    def test_always_on_fraction(self):
        raw = make_random_template(10, 30, np.random.default_rng(1))
        tpl = evolving_template(10, raw.edge_src, raw.edge_dst)
        pop = PeriodicExistencePopulator(tpl, seed=2, always_on_fraction=1.0)
        for t in range(10):
            assert pop.exists_at(t).all()

    def test_invalid_params(self):
        raw = make_random_template(5, 6, np.random.default_rng(2))
        tpl = evolving_template(5, raw.edge_src, raw.edge_dst)
        with pytest.raises(ValueError):
            PeriodicExistencePopulator(tpl, min_period=0)
        with pytest.raises(ValueError):
            PeriodicExistencePopulator(tpl, duty=0.0)

    def test_populates_column(self):
        raw = make_random_template(8, 12, np.random.default_rng(3))
        tpl = evolving_template(8, raw.edge_src, raw.edge_dst)
        pop = PeriodicExistencePopulator(tpl, seed=3)
        coll = build_collection(tpl, 3, pop, lazy=True)
        inst = coll.instance(1)
        assert np.array_equal(inst.edge_column("is_exists"), pop.exists_at(1))
