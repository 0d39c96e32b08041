"""Tests for timeline/utilization extraction and text rendering."""

import numpy as np
import pytest

from repro.analysis import (
    frontier_matrix,
    frontier_totals,
    render_bar_chart,
    render_series,
    render_table,
    utilization_rows,
)
from repro.algorithms import TDSPComputation, MemeTrackingComputation
from repro.core import AppResult, run_application
from repro.generators import road_latency_collection, tweet_collection
from repro.partition import HashPartitioner, partition_graph
from tests.conftest import make_grid_template


@pytest.fixture
def tdsp_run():
    tpl = make_grid_template(6, 8)
    coll = road_latency_collection(tpl, 6, seed=2, delta=5.0)
    pg = partition_graph(tpl, 3, HashPartitioner(seed=1))
    res = run_application(TDSPComputation(0), pg, coll)
    return pg, coll, res


class TestTimeline:
    def test_timestep_times_length(self, tdsp_run):
        _pg, _coll, res = tdsp_run
        series = res.metrics.timestep_series()
        assert len(series) == res.timesteps_executed
        assert all(v >= 0 for v in series)

    def test_frontier_matrix_totals(self, tdsp_run):
        pg, _coll, res = tdsp_run
        M = frontier_matrix(res, pg)
        totals = frontier_totals(res)
        assert M.shape == (res.timesteps_executed, 3)
        assert np.array_equal(M.sum(axis=1), totals)
        # Everything reached in the run is accounted exactly once.
        reached = sum(len(rec.vertices) for _t, _sg, rec in res.outputs)
        assert M.sum() == reached

    def test_frontier_matrix_meme(self):
        tpl = make_grid_template(5, 5)
        coll = tweet_collection(tpl, 5, hit_probability=0.6, seed=3)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        res = run_application(MemeTrackingComputation(0), pg, coll)
        M = frontier_matrix(res, pg)
        assert M.sum() == sum(rec.count for _t, _sg, rec in res.outputs)


class TestUtilization:
    def test_rows(self, tdsp_run):
        _pg, _coll, res = tdsp_run
        rows = utilization_rows(res)
        assert len(rows) == 3
        for r in rows:
            fractions = (
                r.compute_fraction
                + r.partition_overhead_fraction
                + r.sync_overhead_fraction
            )
            assert fractions == pytest.approx(1.0)
            assert set(r.as_row()) == {
                "partition",
                "compute_%",
                "partition_overhead_%",
                "sync_overhead_%",
                "compute_s",
            }

    def test_no_metrics_raises(self):
        with pytest.raises(ValueError):
            utilization_rows(AppResult())


class TestRendering:
    def test_table_alignment(self):
        out = render_table([{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert len({len(l) for l in lines[1:3]}) <= 2
        assert "222" in out

    def test_table_empty(self):
        assert "(empty)" in render_table([], title="X")

    def test_series(self):
        out = render_series([1.0, 2.5], label="t", fmt="{:.1f}")
        assert out == "t: 1.0 2.5"

    def test_bar_chart(self):
        out = render_bar_chart([1.0, 2.0], ["a", "b"], width=10, title="bars")
        lines = out.splitlines()
        assert lines[0] == "bars"
        assert lines[2].count("#") == 10  # peak fills the width
        assert lines[1].count("#") == 5

    def test_bar_chart_empty(self):
        assert render_bar_chart([], title="t") == "t"

    def test_bar_chart_zero_values(self):
        out = render_bar_chart([0.0, 0.0])
        assert "#" not in out
