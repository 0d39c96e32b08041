"""Integration: traced engine runs across executors and storage."""

import json
import pickle

import pytest

from repro.algorithms import MemeTrackingComputation, TDSPComputation
from repro.core import EngineConfig, run_application
from repro.generators import road_latency_collection, tweet_collection
from repro.observability import TraceConfig, chrome_trace, read_event_log, validate_chrome_trace
from repro.partition import HashPartitioner, partition_graph
from repro.runtime.gc_model import GCModel
from repro.storage import GoFS
from tests.conftest import assert_one_record_stream, folds_equal, make_grid_template, refold

PARTITIONS = 3


@pytest.fixture
def road_case():
    tpl = make_grid_template(5, 6)
    coll = road_latency_collection(tpl, 6, seed=2, delta=5.0)
    pg = partition_graph(tpl, PARTITIONS, HashPartitioner(seed=1))
    return tpl, coll, pg


@pytest.fixture
def tweet_case():
    tpl = make_grid_template(6, 6)
    coll = tweet_collection(tpl, 5, seed=3, delta=5.0)
    pg = partition_graph(tpl, PARTITIONS, HashPartitioner(seed=1))
    return tpl, coll, pg


class TestTracedRun:
    def test_untraced_by_default(self, road_case):
        _tpl, coll, pg = road_case
        res = run_application(TDSPComputation(0), pg, coll)
        assert res.trace is None

    def test_tracing_does_not_change_results(self, road_case):
        _tpl, coll, pg = road_case
        plain = run_application(TDSPComputation(0), pg, coll)
        traced = run_application(
            TDSPComputation(0), pg, coll, config=EngineConfig(tracing=True)
        )
        assert pickle.dumps(plain.states) == pickle.dumps(traced.states)
        assert pickle.dumps(plain.outputs) == pickle.dumps(traced.outputs)
        # wall times are measured (vary run to run); counts are deterministic
        deterministic = (
            "timesteps", "supersteps", "messages", "local_messages",
            "remote_messages", "frames", "bytes_sent", "cut_traffic_ratio",
        )
        a, b = plain.metrics.summary(), traced.metrics.summary()
        assert {k: a[k] for k in deterministic} == {k: b[k] for k in deterministic}

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_trace_validates_and_replays(self, road_case, executor, tmp_path):
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll,
            config=EngineConfig(executor=executor, tracing=True),
        )
        paths = res.trace.write(tmp_path)
        trace = json.loads(paths["trace"].read_text())
        assert validate_chrome_trace(trace) == []
        # trace.json is a rendering of events.jsonl, and of nothing else
        assert chrome_trace(read_event_log(paths["events"]), {"manifest": "manifest.json"}) == trace
        assert_one_record_stream(res)
        # one track per partition plus the driver
        pids = {pid for pid, _ in res.trace.spans}
        assert pids == {0, 1, 2, 3}

    def test_replay_matches_partition_breakdown(self, road_case):
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll, config=EngineConfig(tracing=True)
        )
        # Not approximately: the same records folded by the same arithmetic.
        assert refold(res).partition_breakdown() == res.metrics.partition_breakdown()

    @pytest.mark.parametrize("kind", ["step", "instance_load"])
    def test_dropped_event_breaks_the_round_trip(self, road_case, kind):
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll, config=EngineConfig(tracing=True)
        )
        events = res.trace.event_records()
        victim = next(
            e for e in events
            if e["kind"] == kind and e.get("compute_s", e.get("seconds"))
        )
        events.remove(victim)
        assert not folds_equal(refold(res, events), res.metrics)

    def test_expected_event_kinds_present(self, road_case):
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll, config=EngineConfig(tracing=True)
        )
        kinds = {e["kind"] for e in res.trace.event_records()}
        assert {"step", "barrier", "frame_ship", "instance_load"} <= kinds
        assert "sends" not in kinds  # a host flush is its step record's fields

    def test_gc_events(self, tweet_case):
        _tpl, coll, pg = tweet_case
        cfg = EngineConfig(tracing=True, gc_model=GCModel(interval=2, pause_per_gib_s=0.5))
        res = run_application(MemeTrackingComputation(0), pg, coll, config=cfg)
        events = res.trace.event_records()
        pauses = [e for e in events if e["kind"] == "gc_pause"]
        assert pauses and all(e["seconds"] > 0 for e in pauses)
        assert {e["timestep"] for e in pauses} == {2, 4}
        assert sum(e["seconds"] for e in pauses) == pytest.approx(res.metrics.total_gc_s())
        # the log still refolds with GC in the wall accounting
        assert_one_record_stream(res)

    def test_log_with_kinds_of_an_older_schema_still_folds(self, road_case):
        """``from_events`` skips kinds it has no record for, and fields its
        records do not have: a log written when runs could migrate subgraphs,
        the driver sent prefetch hints, GoFS views prefetched packs (and load
        lines carried the seconds a prefetch hid) and a repair was also
        logged as a ``respawn`` finding folds to the same collector."""
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll, config=EngineConfig(tracing=True)
        )
        old = {"schema": 1, "ts_us": 0, "pid": 0, "timestep": 1}
        events = [
            {**e, "hidden_s": 0.25} if e["kind"] == "instance_load" else e
            for e in res.trace.event_records()
        ] + [
            {**old, "kind": "migration", "count": 1, "cost_s": 0.25},
            {**old, "kind": "migrate", "subgraph": 3, "src": 0, "dst": 1, "cost_s": 0.25},
            {**old, "kind": "prefetch_issue", "superstep": 0, "next_timestep": 2},
            {**old, "kind": "prefetch_start", "partition": 0, "pack": 1},
            {**old, "kind": "prefetch_hit", "partition": 0, "pack": 1, "waited_s": 0.0},
            {**old, "kind": "prefetch_miss", "partition": 1, "pack": 1, "seconds": 0.5},
            {**old, "kind": "slice_load", "partition": 0, "pack": 1, "bins": 1,
             "seconds": 0.5, "hidden_s": 0.5, "prefetched": True},
            {**old, "kind": "respawn", "superstep": 0, "partition": 1, "seconds": 0.5,
             "detail": "incarnation 1 after WorkerCrash"},
        ]
        assert sum(e["kind"] == "instance_load" for e in events) > 0
        assert folds_equal(refold(res, events), res.metrics)


class TestProcessClusterTracing:
    def test_worker_telemetry_marshalled(self, road_case, tmp_path):
        _tpl, coll, pg = road_case
        root = tmp_path / "store"
        GoFS.write_collection(root, pg, coll, packing=2)
        res = run_application(
            TDSPComputation(0), pg, coll,
            config=EngineConfig(executor="process", tracing=True),
            sources=GoFS.partition_views(root),
        )
        assert validate_chrome_trace(chrome_trace(res.trace.event_records())) == []
        assert_one_record_stream(res)
        pids = {pid for pid, _ in res.trace.spans}
        assert {1, 2, 3} <= pids, "worker spans did not make it back to the driver"
        kinds = {e["kind"] for e in res.trace.event_records()}
        assert "slice_load" in kinds  # GoFS pack loads traced inside workers
        # driver-side scatter/gather spans
        driver_spans = {s.name for pid, s in res.trace.spans if pid == 0}
        assert {"ship", "barrier"} <= driver_spans


class TestStreamedLog:
    def test_read_event_log_skips_a_torn_final_line(self, tmp_path):
        """What a reader meets mid-write, or after a kill -9 during a flush."""
        path = tmp_path / "events.jsonl"
        path.write_text('{"schema":1,"kind":"run_begin"}\n{"schema":1,"kind":"st')
        assert read_event_log(path) == [{"schema": 1, "kind": "run_begin"}]

    def test_read_event_log_raises_on_a_corrupt_interior_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"schema":1,"kind":"st\n{"schema":1,"kind":"run_end"}\n')
        with pytest.raises(ValueError):
            read_event_log(path)

    def test_write_leaves_the_streamed_log_alone(self, road_case, tmp_path):
        """Writing the artifacts into the directory the run streamed to does
        not reopen its log (a reader tailing it would see it empty)."""
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll,
            config=EngineConfig(tracing=TraceConfig(stream_dir=str(tmp_path))),
        )
        log = tmp_path / "events.jsonl"
        before = log.stat().st_mtime_ns
        paths = res.trace.write(tmp_path, {"algorithm": "tdsp"})
        assert paths["events"] == log and log.stat().st_mtime_ns == before
        assert read_event_log(log) == res.trace.event_records()
        assert paths["trace"].exists() and paths["manifest"].exists()

    def test_a_streamed_write_normalizes_each_record_once(self, road_case, tmp_path, monkeypatch):
        """The stream wrote every record normalized and sorted: ``write``
        renders ``trace.json`` from that log instead of normalizing again."""
        from repro.observability import runtrace

        calls = []
        real = runtrace.normalize_event
        monkeypatch.setattr(runtrace, "normalize_event", lambda *a: calls.append(1) or real(*a))
        _tpl, coll, pg = road_case
        res = run_application(
            TDSPComputation(0), pg, coll,
            config=EngineConfig(tracing=TraceConfig(stream_dir=str(tmp_path))),
        )
        paths = res.trace.write(tmp_path, {"algorithm": "tdsp"})
        log = read_event_log(paths["events"])
        assert len(calls) == len(log) == len(res.trace.records) > 0
        trace = json.loads(paths["trace"].read_text())
        assert chrome_trace(log, {"manifest": "manifest.json"}) == trace
