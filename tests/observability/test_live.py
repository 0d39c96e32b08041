"""Live telemetry plane: one collector, health detection, engine wiring."""

import pickle
import sys
import threading

import pytest

from repro.algorithms import TDSPComputation
from repro.core import EngineConfig, run_application
from repro.generators import road_latency_collection
from repro.observability import (
    HealthEvent,
    LiveConfig,
    LiveMetrics,
    RunRecorder,
    read_snapshots,
    validate_live_snapshot,
)
from repro.partition import HashPartitioner, partition_graph
from repro.runtime import CollectionInstanceSource
from repro.runtime.metrics import PHASE_COMPUTE, MetricsCollector, StepRecord
from tests.conftest import make_grid_template

PARTITIONS = 3


@pytest.fixture
def road_case():
    tpl = make_grid_template(5, 6)
    coll = road_latency_collection(tpl, 6, seed=2, delta=5.0)
    pg = partition_graph(tpl, PARTITIONS, HashPartitioner(seed=1))
    return tpl, coll, pg


def _live_config(**overrides):
    """Snapshot at every observation, no watchdog thread: deterministic."""
    defaults = dict(interval_s=0.0, heartbeat_s=None)
    defaults.update(overrides)
    return LiveConfig(**defaults)


class TestLiveEnabled:
    def test_interpretation(self, road_case):
        """``EngineConfig.live`` is read by truthiness: one spelling of "off"."""
        _tpl, coll, pg = road_case
        for value, expected in [(None, False), (False, False), (True, True), (_live_config(), True)]:
            res = run_application(TDSPComputation(0), pg, coll, config=EngineConfig(live=value))
            assert (res.live is not None) is expected, value
        with pytest.raises(TypeError):
            LiveConfig(enabled=False)


class TestEngineIntegration:
    def test_live_off_by_default(self, road_case):
        _tpl, coll, pg = road_case
        res = run_application(TDSPComputation(0), pg, coll)
        assert res.live is None
        assert res.health_events == []

    @pytest.mark.parametrize("executor", ["serial"])
    def test_summary_matches_collector_exactly(self, road_case, executor):
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll,
            config=EngineConfig(executor=executor, live=_live_config()),
        )
        assert res.live is not None
        # Not approximately: the registry reads the run's own collector.
        assert res.live.metrics is res.metrics
        assert res.live.summary() == res.metrics.summary()

    def test_summary_matches_collector_process_executor(self, road_case):
        _tpl, coll, pg = road_case
        sources = [CollectionInstanceSource(coll) for _ in range(PARTITIONS)]
        res = run_application(
            TDSPComputation(0), pg, coll, sources=sources,
            config=EngineConfig(executor="process", live=_live_config()),
        )
        assert res.live.summary() == res.metrics.summary()
        # Hosts published per-source stats on the protocol replies.
        final = res.live.last_snapshot()
        assert final["sources"].get("resident_bytes", 0) > 0

    def test_reader_thread_sees_monotone_totals(self, road_case, monkeypatch):
        """A dashboard polling from another thread reads whole records: the
        driver folds under the lock ``snapshot`` / ``summary`` take."""
        import repro.core.engine as engine_mod

        _tpl, coll, pg = road_case
        sources = [CollectionInstanceSource(coll) for _ in range(PARTITIONS)]
        seen, errors, lives = [], [], []
        done = threading.Event()

        def capture(*args, **kwargs):
            """Hand the reader the registry the engine builds."""
            lives.append(LiveMetrics(*args, **kwargs))
            return lives[-1]

        def poll():
            try:
                while not done.is_set():
                    if lives:
                        seen.append(lives[0].snapshot(force=True)["totals"]["supersteps"])
                        seen.append(lives[0].summary()["supersteps"])
            except Exception as exc:  # surfaced below, on the test thread
                errors.append(exc)

        monkeypatch.setattr(engine_mod, "LiveMetrics", capture)
        reader = threading.Thread(target=poll, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        reader.start()
        try:
            res = run_application(
                TDSPComputation(0), pg, coll, sources=sources,
                config=EngineConfig(executor="process", live=_live_config(ring=4)),
            )
        finally:
            sys.setswitchinterval(interval)
            done.set()
            reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert errors == []
        assert seen and seen == sorted(seen)
        # One registry, and it holds no second collector.
        assert lives == [res.live] and res.live.metrics is res.metrics
        assert res.live.summary() == res.metrics.summary()

    def test_results_bit_identical_live_on_vs_off(self, road_case):
        _tpl, coll, pg = road_case
        plain = run_application(TDSPComputation(0), pg, coll)
        live = run_application(
            TDSPComputation(0), pg, coll,
            config=EngineConfig(live=_live_config()),
        )
        assert pickle.dumps(plain.states) == pickle.dumps(live.states)
        assert pickle.dumps(plain.outputs) == pickle.dumps(live.outputs)

    def test_live_true_shorthand(self, road_case):
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll, config=EngineConfig(live=True)
        )
        assert res.live is not None
        assert res.live.summary() == res.metrics.summary()

    def test_snapshots_validate_and_export(self, road_case, tmp_path):
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll,
            config=EngineConfig(live=_live_config(export_dir=str(tmp_path))),
        )
        records = read_snapshots(tmp_path / "live.jsonl")
        assert records, "no snapshots exported"
        for rec in records:
            assert validate_live_snapshot(rec) == []
        assert [r["seq"] for r in records] == sorted(r["seq"] for r in records)
        # The final exported snapshot's totals ARE the run summary.
        assert records[-1]["totals"] == res.metrics.summary()
        prom = (tmp_path / "live.prom").read_text()
        assert "tibsp_messages_total" in prom
        assert 'tibsp_partition_busy_s_total{partition="0"}' in prom

    def test_finalize_idempotent(self, road_case):
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll, config=EngineConfig(live=_live_config())
        )
        final = res.live.last_snapshot()
        assert res.live.finalize() == final  # engine already finalized

    def test_health_events_in_event_log_when_traced(self, road_case):
        _tpl, coll, pg = road_case
        # Absurdly low straggler bar: some partition always trips it, which
        # proves health events flow into the PR 2 structured event log.
        res = run_application(
            TDSPComputation(0), pg, coll,
            config=EngineConfig(
                tracing=True,
                live=_live_config(straggler_factor=0.0, straggler_min_s=-1.0),
            ),
        )
        kinds = {e.kind for e in res.health_events}
        assert "straggler" in kinds
        logged = {e["kind"] for e in res.trace.event_records()}
        assert "straggler" in logged


def _collector():
    return MetricsCollector(PARTITIONS, barrier_s=0.001)


def _round(live, records):
    """What the engine does with one round's replies: emit each, then absorb."""
    recorder = RunRecorder(live.metrics, live=live)
    for rec in records:
        recorder.emit(rec)
    recorder.absorb(records)


def _rec(p, *, compute_s=0.1, send_s=0.0, messages=1, t=0, s=0):
    return StepRecord(
        phase=PHASE_COMPUTE, timestep=t, superstep=s, partition=p,
        compute_s=compute_s, send_s=send_s, subgraphs_computed=1,
        messages_sent=messages, bytes_sent=8 * messages,
    )


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


#: Snapshots only when forced: keeps the detection windows deterministic
#: (interval 0 would auto-snapshot inside every observe_* call).
MANUAL = dict(interval_s=1e9)


class TestDetection:
    def test_straggler_flagged_and_debounced(self):
        clock = FakeClock()
        live = LiveMetrics(
            PARTITIONS, metrics=_collector(), clock=clock,
            config=_live_config(straggler_factor=2.0, straggler_min_s=0.05, **MANUAL),
        )
        live.snapshot(force=True)  # establish the window baseline
        records = [_rec(0, compute_s=1.0), _rec(1, compute_s=0.1), _rec(2, compute_s=0.1)]
        clock.advance(1.0)
        _round(live, records)
        snap = live.snapshot(force=True)
        assert snap["health"]["stragglers"] == [0]
        events = [e for e in live.health_events() if e.kind == "straggler"]
        assert len(events) == 1 and events[0].partition == 0
        # Same partition still slow next window: no duplicate event.
        clock.advance(1.0)
        _round(live, [
            _rec(0, compute_s=1.0, s=1), _rec(1, compute_s=0.1, s=1), _rec(2, compute_s=0.1, s=1),
        ])
        live.snapshot(force=True)
        assert len([e for e in live.health_events() if e.kind == "straggler"]) == 1

    def test_balanced_partitions_not_flagged(self):
        clock = FakeClock()
        live = LiveMetrics(
            PARTITIONS, metrics=_collector(), clock=clock, config=_live_config(**MANUAL)
        )
        live.snapshot(force=True)
        clock.advance(1.0)
        _round(live, [_rec(p, compute_s=0.1) for p in range(PARTITIONS)])
        snap = live.snapshot(force=True)
        assert snap["health"]["stragglers"] == []

    def test_stall_detected_once_per_round(self):
        clock = FakeClock()
        live = LiveMetrics(
            PARTITIONS, metrics=_collector(), clock=clock,
            config=_live_config(stall_after_s=2.0, **MANUAL),
        )
        _round(live, [_rec(1), _rec(2)])  # p0 never seen... later
        live.round_begin(PHASE_COMPUTE, 0, 1)
        clock.advance(1.0)
        assert live.check_stalled() is None  # under threshold
        clock.advance(1.5)
        event = live.check_stalled()
        assert event is not None and event.kind == "stalled"
        assert event.partition == 0  # silent longest (never reported)
        assert event.seconds == pytest.approx(2.5)
        assert live.check_stalled() is None  # flagged once per round
        # The next completed round clears the stall state.
        _round(live, [_rec(p, s=1) for p in range(PARTITIONS)])
        assert live.snapshot(force=True)["health"]["stalled"] is False

    def test_resync_rewinds_to_restored_collector(self):
        clock = FakeClock()
        live = LiveMetrics(
            PARTITIONS, metrics=_collector(), clock=clock, config=_live_config(**MANUAL)
        )
        _round(live, [_rec(p, compute_s=0.5) for p in range(PARTITIONS)])
        restored = _collector()
        restored.fold(_rec(0, compute_s=0.2))
        live.resync(restored)
        assert live.metrics is restored
        assert live.summary() == restored.summary()
        # The resync landed in the snapshot stream for `tibsp top`, its
        # series folded from the restored records; it is a resume's starting
        # point, not a health finding.
        snap = live.last_snapshot()
        assert snap["totals"] == restored.summary()
        assert snap["partitions"][0]["busy_s"] == pytest.approx(0.2)
        assert snap["partitions"][1]["busy_s"] == 0.0
        assert live.health_events() == []

    def test_health_event_as_dict(self):
        e = HealthEvent(
            kind="straggler", partition=2, timestep=1, superstep=0,
            wall_s=1.23456789, seconds=0.5, detail="x",
        )
        d = e.as_dict()
        assert d["kind"] == "straggler" and d["partition"] == 2
        assert d["wall_s"] == 1.234568
