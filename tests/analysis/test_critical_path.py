"""Critical-path attribution: synthetic arithmetic + reconciliation on real runs."""

import pytest

from repro.algorithms import TDSPComputation
from repro.analysis import critical_path_report, format_critical_path_report
from repro.core import EngineConfig, run_application
from repro.generators import road_latency_collection
from repro.partition import HashPartitioner, partition_graph
from repro.runtime.gc_model import GCModel
from repro.runtime.metrics import MetricsCollector
from tests.conftest import assert_one_record_stream, make_grid_template

PARTITIONS = 3


def _step(t, s, p, compute_s, send_s=0.0):
    return {
        "kind": "step", "phase": "compute", "timestep": t, "superstep": s,
        "partition": p, "compute_s": compute_s, "send_s": send_s,
    }


def _load(t, p, seconds):
    return {"kind": "instance_load", "timestep": t, "partition": p, "seconds": seconds}


def _report(events, num_partitions, barrier_s=0.0):
    """The offline path: fold an event log, then attribute."""
    return critical_path_report(
        MetricsCollector.from_events(events, num_partitions, barrier_s=barrier_s)
    )


class TestSyntheticAttribution:
    def test_chain_follows_slowest_partition(self):
        events = [
            _load(0, 0, 0.3), _load(0, 1, 0.1),
            _step(0, 0, 0, 1.0, 0.2), _step(0, 0, 1, 0.5),
            _step(0, 1, 0, 0.1), _step(0, 1, 1, 0.8, 0.1),
        ]
        report = _report(events, 2, barrier_s=0.05)
        (entry,) = report["timesteps"]
        # s0 pinned by p0 (1.2 busy), s1 by p1 (0.9 busy); load peak on p0.
        assert [(c["superstep"], c["partition"]) for c in entry["chain"]] == [(0, 0), (1, 1)]
        seg = entry["segments"]
        assert seg["compute"] == pytest.approx(1.8)
        assert seg["send_flush"] == pytest.approx(0.3)
        assert seg["barrier"] == pytest.approx(0.1)
        assert seg["load"] == pytest.approx(0.3)
        assert entry["wall_s"] == pytest.approx(2.5)
        # p0 contributed 1.2 busy + 0.3 load = 1.5 of 2.5: the dominant host.
        assert entry["dominant_partition"] == 0
        assert entry["dominant_share"] == pytest.approx(1.5 / 2.5)
        rows = {r["partition"]: r for r in report["partitions"]}
        assert rows[0]["critical_supersteps"] == 1
        assert rows[0]["critical_loads"] == 1
        assert rows[1]["critical_busy_s"] == pytest.approx(0.9)
        assert report["stragglers"][0] == 0

    def test_ties_break_to_lowest_partition(self):
        events = [_step(0, 0, 1, 0.5), _step(0, 0, 0, 0.5)]
        report = _report(events, 2)
        assert report["timesteps"][0]["chain"][0]["partition"] == 0

    def test_format_report(self):
        events = [_step(0, 0, 0, 1.0), _step(0, 0, 1, 0.5)]
        text = format_critical_path_report(_report(events, 2))
        assert "critical path over 1 timesteps" in text
        assert "partition 0" in text
        assert "compute" in text


@pytest.fixture
def road_case():
    tpl = make_grid_template(5, 6)
    coll = road_latency_collection(tpl, 6, seed=2, delta=5.0)
    pg = partition_graph(tpl, PARTITIONS, HashPartitioner(seed=1))
    return tpl, coll, pg


class TestCrosscheck:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_matches_replay_and_collector(self, road_case, executor):
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll,
            config=EngineConfig(executor=executor, tracing=True),
        )
        assert_one_record_stream(res)
        # Per timestep, not just in total: the report re-partitions the
        # collector's own wall.
        walls = res.metrics.timestep_series()
        for entry in critical_path_report(res.metrics)["timesteps"]:
            assert entry["wall_s"] == pytest.approx(walls[entry["timestep"]], abs=1e-12)

    def test_with_gc(self, road_case):
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll,
            config=EngineConfig(tracing=True, gc_model=GCModel()),
        )
        assert_one_record_stream(res)
        assert critical_path_report(res.metrics)["totals"]["gc"] == pytest.approx(
            sum(max(res.metrics.gc_s.get((t, p), 0.0) for p in range(PARTITIONS))
                for t in res.metrics.supersteps_per_timestep)
        )

    def test_needs_no_trace(self, road_case):
        _tpl, coll, pg = road_case
        res = run_application(TDSPComputation(0), pg, coll)
        report = critical_path_report(res.metrics)
        assert [e["timestep"] for e in report["timesteps"]] == sorted(
            res.metrics.supersteps_per_timestep
        )
