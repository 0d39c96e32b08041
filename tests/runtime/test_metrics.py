"""Tests for metrics derivations: superstep walls, timestep series, breakdowns."""

import pytest

from repro.runtime.metrics import (
    PHASE_COMPUTE,
    PHASE_MERGE,
    RECORD_KINDS,
    GcRecord,
    LoadRecord,
    MetricsCollector,
    PartitionBreakdown,
    StepRecord,
)


def rec(t, s, p, compute, send=0.0, phase=PHASE_COMPUTE, computed=1, msgs=0, bts=0):
    return StepRecord(phase, t, s, p, compute, send, computed, msgs, bts)


class TestSuperstepWalls:
    def test_wall_is_max_busy_plus_barrier(self):
        m = MetricsCollector(2, barrier_s=0.1)
        m.fold(rec(0, 0, 0, compute=1.0, send=0.5))
        m.fold(rec(0, 0, 1, compute=2.0))
        walls = m.superstep_walls()
        assert walls[(PHASE_COMPUTE, 0, 0)] == pytest.approx(2.1)

    def test_timestep_wall_sums_supersteps(self):
        m = MetricsCollector(1)
        m.fold(rec(0, 0, 0, 1.0))
        m.fold(rec(0, 1, 0, 2.0))
        m.fold(rec(1, 0, 0, 5.0))
        assert m.timestep_series() == [pytest.approx(3.0), pytest.approx(5.0)]

    def test_loads_and_gc_gate_on_slowest(self):
        m = MetricsCollector(2)
        m.fold(rec(0, 0, 0, 1.0))
        m.fold(rec(0, 0, 1, 1.0))
        m.fold(LoadRecord(0, 0, 0.2))
        m.fold(LoadRecord(0, 1, 0.7))
        m.fold(GcRecord(0, 0, 0.4))
        assert m.timestep_series() == [pytest.approx(1.0 + 0.7 + 0.4)]

    def test_total_wall_includes_merge(self):
        m = MetricsCollector(1)
        m.fold(rec(0, 0, 0, 1.0))
        m.fold(rec(-1, 0, 0, 3.0, phase=PHASE_MERGE))
        assert m.merge_wall() == pytest.approx(3.0)
        assert m.total_wall() == pytest.approx(4.0)


    @pytest.mark.parametrize("timesteps", [3, 40])
    def test_series_groups_the_step_records_once(self, timesteps, monkeypatch):
        """``summary()`` regroups the records a fixed number of times, not
        once per timestep (it used to: O(timesteps x records))."""
        m = MetricsCollector(2, barrier_s=0.01)
        for t in range(timesteps):
            for s in range(3):
                m.fold(rec(t, s, 0, 0.1 * (t + 1)))
                m.fold(rec(t, s, 1, 0.2))
            m.fold(LoadRecord(t, 1, 0.05))
        calls = []
        grouped = MetricsCollector._steps_by_key
        monkeypatch.setattr(
            MetricsCollector, "_steps_by_key", lambda self: calls.append(1) or grouped(self)
        )
        m.summary()
        assert len(calls) == 3  # the series, and the merge wall twice

    def test_prefetch_hint_is_a_fact_without_a_cost(self):
        """An old log's ``prefetch_issue`` line (the driver's hint round, with a
        modeled ``cost_s`` that was always 0) has no record any more: the
        fold skips it, and it moves no wall."""
        old = {"kind": "prefetch_issue", "timestep": 0, "superstep": 0, "next_timestep": 1, "cost_s": 0.0}
        assert "prefetch_issue" not in RECORD_KINDS
        m = MetricsCollector.from_events([rec(0, 0, 0, 1.0).as_event() | {"kind": "step"}, old], 1)
        assert m.timestep_series() == [1.0] and "prefetch_s" not in m.summary()


class TestBreakdown:
    def test_sync_overhead_is_idle_time(self):
        m = MetricsCollector(2)
        m.fold(rec(0, 0, 0, compute=1.0))
        m.fold(rec(0, 0, 1, compute=3.0))
        b0, b1 = m.partition_breakdown()
        assert b0.compute_s == 1.0 and b1.compute_s == 3.0
        assert b0.sync_overhead_s == pytest.approx(2.0)  # waited for partition 1
        assert b1.sync_overhead_s == pytest.approx(0.0)

    def test_send_time_is_partition_overhead(self):
        m = MetricsCollector(1)
        m.fold(rec(0, 0, 0, compute=1.0, send=0.25))
        (b,) = m.partition_breakdown()
        assert b.partition_overhead_s == 0.25
        cf, pf, sf = b.fractions()
        assert cf == pytest.approx(0.8)
        assert pf == pytest.approx(0.2)
        assert sf == 0.0

    def test_load_gc_idle_counted_as_sync(self):
        m = MetricsCollector(2)
        m.fold(rec(0, 0, 0, 1.0))
        m.fold(rec(0, 0, 1, 1.0))
        m.fold(LoadRecord(0, 0, 0.5))  # partition 1 waits 0.5 on partition 0's load
        b0, b1 = m.partition_breakdown()
        assert b1.sync_overhead_s == pytest.approx(0.5)
        assert b0.sync_overhead_s == pytest.approx(0.0)

    def test_fractions_of_empty(self):
        b = PartitionBreakdown(0, 0.0, 0.0, 0.0)
        assert b.fractions() == (0.0, 0.0, 0.0)

    def test_fractions_sum_to_one(self):
        m = MetricsCollector(3)
        for p, c in enumerate((1.0, 2.0, 0.5)):
            m.fold(rec(0, 0, p, c, send=0.1 * p))
        for b in m.partition_breakdown():
            assert sum(b.fractions()) == pytest.approx(1.0)


class TestCounting:
    def test_summary_and_counts(self):
        m = MetricsCollector(1)
        m.fold(rec(0, 0, 0, 1.0, msgs=4))
        m.fold(rec(0, 1, 0, 1.0, msgs=2))
        m.fold(rec(1, 0, 0, 1.0))
        m.fold(rec(-1, 0, 0, 1.0, phase=PHASE_MERGE))
        assert m.total_messages() == 6
        assert m.total_supersteps() == 3 + 1
        assert m.num_timesteps_executed() == 2
        s = m.summary()
        assert s["timesteps"] == 2 and s["messages"] == 6
        assert s["supersteps"] == 4
        assert s["total_wall_s"] > 0

    def test_summary_traffic_and_boundary_totals(self):
        m = MetricsCollector(2)
        m.fold(
            StepRecord(
                PHASE_COMPUTE, 0, 0, 0, 1.0, 0.1, 1, 10, 512,
                local_messages=6, remote_messages=4, frames_sent=2,
            )
        )
        m.fold(
            StepRecord(
                PHASE_COMPUTE, 0, 0, 1, 1.0, 0.0, 1, 5, 256,
                local_messages=5, remote_messages=0, frames_sent=0,
            )
        )
        m.fold(LoadRecord(0, 0, 0.2))
        m.fold(LoadRecord(0, 1, 0.3))
        m.fold(GcRecord(0, 0, 0.05))
        assert m.total_bytes_sent() == 768
        assert m.total_load_s() == pytest.approx(0.5)
        assert m.total_gc_s() == pytest.approx(0.05)
        assert m.cut_traffic_ratio() == pytest.approx(4 / 15)
        s = m.summary()
        assert s["bytes_sent"] == 768
        assert s["cut_traffic_ratio"] == pytest.approx(4 / 15, abs=1e-6)
        assert s["load_blocked_s"] == pytest.approx(0.5) and "load_s" not in s
        assert s["gc_s"] == pytest.approx(0.05)

    def test_summary_ratio_zero_when_no_traffic(self):
        m = MetricsCollector(1)
        m.fold(rec(0, 0, 0, 1.0))
        assert m.summary()["cut_traffic_ratio"] == 0.0


def test_seven_record_kinds():
    """A failure and a repair are each one record: nothing else restates them."""
    assert sorted(RECORD_KINDS) == [
        "checkpoint_write", "failure", "gc_pause", "instance_load", "protocol_retry",
        "step", "worker_respawn",
    ]
