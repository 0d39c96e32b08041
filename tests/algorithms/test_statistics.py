"""Tests for the independent-pattern instance statistics computation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import InstanceStatisticsComputation, stats_series_from_result
from repro.algorithms.statistics import _combine, _partial
from repro.core import run_application
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from tests.conftest import make_grid_template, make_random_template, populate_random


@pytest.fixture
def case():
    tpl = make_grid_template(5, 6)
    coll = build_collection(tpl, 4, populate_random(7))
    pg = partition_graph(tpl, 3, HashPartitioner(seed=1))
    return tpl, coll, pg


class TestVertexStats:
    def test_matches_numpy(self, case):
        tpl, coll, pg = case
        comp = InstanceStatisticsComputation("traffic", range_low=0, range_high=100)
        res = run_application(comp, pg, coll)
        series = stats_series_from_result(res)
        assert set(series) == {0, 1, 2, 3}
        for t, s in series.items():
            vals = coll.instance(t).vertex_column("traffic")
            assert s.count == tpl.num_vertices
            assert s.total == pytest.approx(vals.sum())
            assert s.mean == pytest.approx(vals.mean())
            assert s.variance == pytest.approx(vals.var())
            assert s.minimum == pytest.approx(vals.min())
            assert s.maximum == pytest.approx(vals.max())
            want_hist, _ = np.histogram(vals, bins=s.bin_edges)
            assert np.array_equal(s.histogram, want_hist)

    def test_histogram_counts_everything_in_range(self, case):
        tpl, coll, pg = case
        comp = InstanceStatisticsComputation("traffic", range_low=0, range_high=100)
        res = run_application(comp, pg, coll)
        for s in stats_series_from_result(res).values():
            assert s.histogram.sum() == s.count  # values fill (0, 100)


class TestEdgeStats:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 4), directed=st.booleans())
    def test_each_edge_counted_exactly_once(self, seed, k, directed):
        rng = np.random.default_rng(seed)
        tpl = make_random_template(25, 50, rng, directed=directed)
        coll = build_collection(tpl, 1, populate_random(seed))
        pg = partition_graph(tpl, k, HashPartitioner(seed=seed))
        comp = InstanceStatisticsComputation(
            "latency", on="edges", range_low=0, range_high=10
        )
        res = run_application(comp, pg, coll)
        (s,) = stats_series_from_result(res).values()
        vals = coll.instance(0).edge_column("latency")
        assert s.count == tpl.num_edges
        assert s.total == pytest.approx(vals.sum())
        assert s.variance == pytest.approx(vals.var())


class TestValidation:
    def test_bad_on(self):
        with pytest.raises(ValueError):
            InstanceStatisticsComputation("x", on="faces")

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            InstanceStatisticsComputation("x", bin_edges=[1.0])
        with pytest.raises(ValueError):
            InstanceStatisticsComputation("x", bin_edges=[2.0, 1.0])


class TestPartialCombine:
    @given(
        a=st.lists(st.floats(0, 100), max_size=30),
        b=st.lists(st.floats(0, 100), max_size=30),
    )
    def test_combine_equals_whole(self, a, b):
        edges = np.linspace(0, 100, 6)
        pa = _partial(np.asarray(a), edges)
        pb = _partial(np.asarray(b), edges)
        combined = _combine(pa, pb)
        whole = _partial(np.asarray(a + b), edges)
        assert combined[0] == whole[0]
        assert combined[1] == pytest.approx(whole[1])
        if combined[0]:
            assert combined[2] == pytest.approx(whole[2])
            assert combined[3] == pytest.approx(whole[3])
            assert combined[4] == pytest.approx(whole[4], abs=1e-6)
        assert np.array_equal(combined[5], whole[5])

    def test_empty_partial(self):
        edges = np.linspace(0, 1, 3)
        p = _partial(np.empty(0), edges)
        assert p[0] == 0 and np.isinf(p[2])
        q = _partial(np.asarray([0.5]), edges)
        assert _combine(p, q)[0] == 1
        assert _combine(q, p)[0] == 1
