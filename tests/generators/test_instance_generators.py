"""Tests for instance-data generators: latencies, SIR tweets, populators."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generators import (
    BackgroundHashtagPopulator,
    CompositePopulator,
    SIRTweetPopulator,
    UniformLatencyPopulator,
    paper_datasets,
    road_latency_collection,
    simulate_sir,
    tweet_collection,
)
from repro.graph import build_collection
from tests.conftest import make_grid_template


class TestUniformLatency:
    def test_range_and_determinism(self):
        tpl = make_grid_template(4, 5)
        coll = road_latency_collection(tpl, 5, delta=5.0, seed=3)
        for t in range(5):
            lat = coll.instance(t).edge_column("latency")
            # Defaults: (0.02·δ, 0.2·δ) — all edges within one window.
            assert np.all(lat >= 0.1) and np.all(lat <= 1.0)
        # Same timestep regenerates identically; different timesteps differ.
        a = coll.instance(2).edge_column("latency")
        b = coll.instance(2).edge_column("latency")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, coll.instance(3).edge_column("latency"))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            UniformLatencyPopulator(0.0, 1.0)
        with pytest.raises(ValueError):
            UniformLatencyPopulator(5.0, 2.0)

    def test_default_range_scales_with_delta(self):
        tpl = make_grid_template(3, 3)
        coll = road_latency_collection(tpl, 1, delta=10.0, seed=0)
        lat = coll.instance(0).edge_column("latency")
        assert np.all(lat >= 0.2) and np.all(lat <= 2.0)

    def test_picklable(self):
        tpl = make_grid_template(3, 3)
        coll = road_latency_collection(tpl, 4, seed=1)
        clone = pickle.loads(pickle.dumps(coll))
        assert np.array_equal(
            clone.instance(1).edge_column("latency"),
            coll.instance(1).edge_column("latency"),
        )


class TestSimulateSIR:
    def make(self, p=0.5, seed=0, T=10, period=3):
        tpl = make_grid_template(6, 6)
        rng = np.random.default_rng(seed)
        seeds = np.array([0, 35])
        inf, rec = simulate_sir(
            tpl,
            hit_probability=p,
            num_timesteps=T,
            seeds=seeds,
            infectious_period=period,
            rng=rng,
        )
        return tpl, seeds, inf, rec

    def test_seeds_infected_at_zero(self):
        _, seeds, inf, rec = self.make()
        assert np.all(inf[seeds] == 0)
        assert np.all(rec[seeds] == 3)

    def test_recovery_follows_infection(self):
        _, _, inf, rec = self.make()
        infected = inf != -1
        assert np.all(rec[infected] == inf[infected] + 3)
        assert np.all(rec[~infected] == -1)

    def test_infections_adjacent_to_earlier_infection(self):
        tpl, _, inf, rec = self.make(p=0.8)
        for v in np.nonzero(inf > 0)[0]:
            nbr_inf = inf[tpl.out_neighbors(v)]
            # Some neighbor was infectious at inf[v] - 1.
            ok = ((nbr_inf != -1) & (nbr_inf <= inf[v] - 1) & (inf[v] - 1 < rec[tpl.out_neighbors(v)]))
            assert ok.any(), f"vertex {v} infected without an infectious neighbor"

    def test_zero_probability_stays_at_seeds(self):
        _, seeds, inf, _ = self.make(p=0.0)
        assert set(np.nonzero(inf != -1)[0]) == set(seeds)

    def test_invalid_probability(self):
        tpl = make_grid_template(3, 3)
        with pytest.raises(ValueError):
            simulate_sir(
                tpl,
                hit_probability=1.5,
                num_timesteps=5,
                seeds=np.array([0]),
                rng=np.random.default_rng(0),
            )


class TestSIRTweetPopulator:
    def test_tweets_match_schedule(self):
        tpl = make_grid_template(5, 5)
        pop = SIRTweetPopulator(tpl, [7, 8], hit_probability=0.5, num_timesteps=6, seed=1)
        coll = build_collection(tpl, 6, pop, lazy=True)
        for t in range(6):
            tweets = coll.instance(t).vertex_column("tweets")
            for i, meme in enumerate([7, 8]):
                active = pop.active_mask(i, t)
                for v in range(25):
                    assert (meme in tweets.row(v)) == bool(active[v])

    def test_deterministic_and_picklable(self):
        tpl = make_grid_template(4, 4)
        coll = tweet_collection(tpl, 5, hit_probability=0.4, seed=2)
        clone = pickle.loads(pickle.dumps(coll))
        a = coll.instance(3).vertex_column("tweets")
        b = clone.instance(3).vertex_column("tweets")
        assert a.equals(b) and len(a.values)


class TestComposition:
    def test_composite_order(self):
        tpl = make_grid_template(3, 3)
        sir = SIRTweetPopulator(tpl, [0], hit_probability=0.5, num_timesteps=3, seed=1)
        noise = BackgroundHashtagPopulator([50], rate=2.0, seed=2)
        coll = build_collection(tpl, 3, CompositePopulator([sir, noise]), lazy=True)
        inst = coll.instance(0)
        tweets = inst.vertex_column("tweets")
        assert 50 in tweets.values  # noise applied
        # Each row keeps its memes first, then the draws.
        for v in range(9):
            row = tweets.row(v).tolist()
            assert row == sorted(row, key=lambda h: h == 50)

    def test_background_requires_tags(self):
        with pytest.raises(ValueError):
            BackgroundHashtagPopulator([])

    def test_background_negative_rate(self):
        with pytest.raises(ValueError):
            BackgroundHashtagPopulator([1], rate=-1)


class TestPaperDatasets:
    def test_structure(self):
        data = paper_datasets(scale=800, num_instances=6, seed=1)
        assert set(data) == {"CARN", "WIKI"}
        for name, d in data.items():
            assert d["template"].name == name
            assert len(d["road"]) == 6
            assert len(d["tweets"]) == 6
            assert "latency" in d["template"].edge_schema
            inst = d["tweets"].instance(0)
            assert inst.vertex_values.n == d["template"].num_vertices
