"""Meme tracking correctness against the reference temporal BFS."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.meme import (
    MemeFrontier,
    MemeTrackingComputation,
    colored_timesteps_from_result,
)
from repro.algorithms.reference import temporal_meme_bfs
from repro.core import run_application
from repro.generators import smallworld_network, tweet_collection
from repro.graph import AttributeSchema, AttributeSpec, GraphTemplate, build_collection
from repro.partition import HashPartitioner, partition_graph
from tests.conftest import make_random_template, ragged

M = 7  #: the tracked meme's hashtag id


def tweets_template(n, src, dst, directed=False):
    return GraphTemplate(
        n,
        src,
        dst,
        directed=directed,
        vertex_schema=AttributeSchema([AttributeSpec("tweets", "ragged")]),
    )


def random_tweet_case(seed, n=35, m=70, T=6, k=3, meme_prob=0.25):
    rng = np.random.default_rng(seed)
    raw = make_random_template(n, m, rng)
    tpl = tweets_template(raw.num_vertices, raw.edge_src, raw.edge_dst)

    def pop(inst, t, _seed=seed):
        r = np.random.default_rng(777 + _seed * 31 + t)
        tw = [[0] if r.random() < meme_prob else [] for v in range(n)]
        inst.vertex_values.set_column("tweets", ragged(tw))

    coll = build_collection(tpl, T, pop, delta=1.0)
    pg = partition_graph(tpl, k, HashPartitioner(seed=seed))
    return tpl, coll, pg


class TestHandCrafted:
    def test_fig4_style_chain_spread(self):
        """Fig 4's scenario: meme hops one vertex per timestep along a path."""
        tpl = tweets_template(4, [0, 1, 2], [1, 2, 3])
        schedule = {  # vertex -> timesteps at which it tweets the meme
            0: {0, 1, 2, 3},
            1: {1, 2, 3},
            2: {2, 3},
            3: {3},
        }

        def pop(inst, t):
            tw = [[M] if t in schedule[v] else [] for v in range(4)]
            inst.vertex_values.set_column("tweets", ragged(tw))

        coll = build_collection(tpl, 4, pop)
        pg = partition_graph(tpl, 2, HashPartitioner())
        res = run_application(MemeTrackingComputation(M), pg, coll)
        got = colored_timesteps_from_result(res)
        assert got == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_disconnected_meme_not_colored(self):
        """A vertex with the meme but no path from the seeds stays uncolored."""
        tpl = tweets_template(4, [0, 2], [1, 3])  # components {0,1} and {2,3}

        def pop(inst, t):
            tw = [None] * 4
            tw[0] = [M] if t == 0 else []
            tw[1] = [M] if t >= 1 else []
            tw[2] = []
            tw[3] = [M] if t >= 1 else []  # has meme, but no colored neighbor
            inst.vertex_values.set_column("tweets", ragged(tw))

        coll = build_collection(tpl, 3, pop)
        pg = partition_graph(tpl, 2, HashPartitioner())
        res = run_application(MemeTrackingComputation(M), pg, coll)
        got = colored_timesteps_from_result(res)
        assert got == {0: 0, 1: 1}

    def test_spread_resumes_after_gap(self):
        """Meme disappears for a timestep, then reappears adjacent to C*."""
        tpl = tweets_template(3, [0, 1], [1, 2])

        def pop(inst, t):
            tw = [None] * 3
            tw[0] = [M] if t == 0 else []
            tw[1] = []  # never tweets in t=1
            tw[2] = []
            if t == 2:
                tw[1] = [M]
            if t == 3:
                tw[2] = [M]
            inst.vertex_values.set_column("tweets", ragged(tw))

        coll = build_collection(tpl, 4, pop)
        pg = partition_graph(tpl, 2, HashPartitioner())
        got = colored_timesteps_from_result(
            run_application(MemeTrackingComputation(M), pg, coll)
        )
        assert got == {0: 0, 1: 2, 2: 3}

    def test_multi_hop_within_one_timestep(self):
        """A contiguous meme chain colors fully in a single timestep."""
        tpl = tweets_template(4, [0, 1, 2], [1, 2, 3])

        def pop(inst, t):
            tw = [[M]] * 4 if t == 0 else [[]] * 4
            inst.vertex_values.set_column("tweets", ragged(tw))

        coll = build_collection(tpl, 2, pop)
        pg = partition_graph(tpl, 3, HashPartitioner())
        got = colored_timesteps_from_result(
            run_application(MemeTrackingComputation(M), pg, coll)
        )
        assert got == {0: 0, 1: 0, 2: 0, 3: 0}


class TestReferenceEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 4))
    def test_matches_reference_random(self, seed, k):
        tpl, coll, pg = random_tweet_case(seed, k=k)
        res = run_application(MemeTrackingComputation(0), pg, coll)
        got = colored_timesteps_from_result(res)
        want = temporal_meme_bfs(coll, 0)
        assert got == want

    def test_sir_workload_on_smallworld(self):
        tpl = smallworld_network(300, seed=4)
        coll = tweet_collection(tpl, 12, hit_probability=0.2, seed=4, memes=[0, 1])
        pg = partition_graph(tpl, 3, HashPartitioner(seed=1))
        for meme in (0, 1):
            res = run_application(MemeTrackingComputation(meme), pg, coll)
            got = colored_timesteps_from_result(res)
            want = temporal_meme_bfs(coll, meme)
            assert got == want

    def test_frontier_counts_sum_to_colored(self):
        tpl, coll, pg = random_tweet_case(99)
        res = run_application(MemeTrackingComputation(0), pg, coll)
        total = sum(
            rec.count for _t, _sg, rec in res.outputs if isinstance(rec, MemeFrontier)
        )
        assert total == len(colored_timesteps_from_result(res))
