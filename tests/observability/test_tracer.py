"""Unit tests for the observability plane (the engine only where it reads a config)."""

import json

import numpy as np
import pytest

from repro.algorithms import TDSPComputation
from repro.core import EngineConfig, run_application
from repro.generators import road_latency_collection
from repro.observability import (
    DRIVER_PID,
    EVENT_SCHEMA_VERSION,
    NULL_SPAN,
    BufferedEventLogWriter,
    TracePacket,
    Tracer,
    chrome_trace,
    partition_pid,
    read_event_log,
    run_provenance,
    validate_chrome_trace,
)
from repro.observability.events import normalize_event
from repro.observability.runtrace import RunTrace, TraceConfig
from repro.partition import HashPartitioner, partition_graph
from tests.conftest import make_grid_template


class TestTracer:
    def test_span_records_name_args_and_duration(self):
        tr = Tracer(3)
        with tr.span("superstep", t=1, s=0):
            pass
        (span,) = tr.records
        assert span["kind"] == "span" and span["pid"] == 3 and span["name"] == "superstep"
        assert span["args"] == {"t": 1, "s": 0}
        assert span["dur_ns"] >= 0

    def test_spans_nest_by_containment(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        inner, outer = tr.records  # inner closes first, and is stamped with its end
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert outer["ts_ns"] - outer["dur_ns"] <= inner["ts_ns"] - inner["dur_ns"]
        assert outer["ts_ns"] >= inner["ts_ns"]

    def test_event_stamps_kind_ts_pid(self):
        tr = Tracer(5)
        tr.event("sends", local=3, remote=7)
        (e,) = tr.records
        assert e["kind"] == "sends" and e["pid"] == 5
        assert e["local"] == 3 and e["remote"] == 7
        assert isinstance(e["ts_ns"], int)

    def test_counters_accumulate(self):
        tr = Tracer()
        tr.count("messages.local")
        tr.count("messages.local", 4)
        tr.count("bytes", 2.5)
        assert tr.counters == {"messages.local": 5, "bytes": 2.5}

    def test_drain_detaches_and_resets(self):
        tr = Tracer(2)
        with tr.span("load"):
            pass
        tr.count("x")
        packet = tr.drain()
        assert isinstance(packet, TracePacket)
        assert packet.pid == 2 and [r["kind"] for r in packet.records] == ["span", "counters"]
        assert packet.records[1]["values"] == {"x": 1}
        assert tr.records == [] and tr.counters == {}
        assert tr.drain() is None  # empty tracer drains to None

    def test_null_span_is_reusable(self):
        for _ in range(3):
            with NULL_SPAN:
                pass

    def test_partition_pid_offsets_past_driver(self):
        assert DRIVER_PID == 0
        assert partition_pid(0) == 1
        assert partition_pid(7) == 8


class TestTracingEnabled:
    """``EngineConfig.tracing`` is read by truthiness: one spelling of "off"."""

    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, False),
            (False, False),
            (True, True),
            (TraceConfig(), True),
        ],
    )
    def test_interpretations(self, value, expected):
        tpl = make_grid_template(3, 3)
        coll = road_latency_collection(tpl, 2, seed=2, delta=5.0)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        result = run_application(
            TDSPComputation(0), pg, coll, config=EngineConfig(tracing=value)
        )
        assert (result.trace is not None) is expected

    def test_a_config_has_no_off_switch(self):
        with pytest.raises(TypeError):
            TraceConfig(enabled=False)


class TestEventLog:
    def test_normalize_relative_microseconds(self):
        raw = {"kind": "sends", "ts_ns": 2_500_000, "pid": 1, "local": np.int64(3)}
        rec = normalize_event(raw, epoch_ns=500_000)
        assert rec["schema"] == EVENT_SCHEMA_VERSION
        assert rec["ts_us"] == 2000.0
        assert rec["local"] == 3 and isinstance(rec["local"], int)
        assert "ts_ns" not in rec
        span = {"kind": "span", "ts_ns": 2_500_000, "pid": 1, "dur_ns": 1_500, "args": None}
        assert normalize_event(span, epoch_ns=500_000)["dur_us"] == 1.5

    def test_roundtrip_jsonl(self, tmp_path):
        records = [
            {"schema": 1, "kind": "step", "ts_us": 1.0, "pid": 0, "compute_s": 0.25},
            {"schema": 1, "kind": "barrier", "ts_us": 2.5, "pid": 0},
        ]
        path = tmp_path / "events.jsonl"
        with BufferedEventLogWriter(path) as log:
            log.write_many(records)
        assert read_event_log(path) == records
        # one compact object per line
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "step"


class TestChromeTrace:
    def _trace(self):
        raw = [
            {"kind": "span", "ts_ns": 1_500_000, "pid": 0, "name": "timestep",
             "dur_ns": 500_000, "args": {"t": 0}},
            {"kind": "span", "ts_ns": 1_200_000, "pid": 1, "name": "compute",
             "dur_ns": 100_000, "args": None},
            {"kind": "sends", "ts_ns": 1_200_000, "pid": 1, "local": 2},
            {"kind": "counters", "ts_ns": 1_200_000, "pid": 1, "values": {"x": 1}},
        ]
        return chrome_trace([normalize_event(r, 1_000_000) for r in raw])

    def test_required_keys_and_metadata_tracks(self):
        trace = self._trace()
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
        assert names == {"process_name", "process_sort_index"}
        labels = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert labels == {0: "driver", 1: "partition 0"}
        assert {e["name"] for e in trace["traceEvents"]} >= {"sends", "compute"}
        assert "counters" not in {e["name"] for e in trace["traceEvents"]}

    def test_span_becomes_complete_event_in_microseconds(self):
        trace = self._trace()
        (x,) = [e for e in trace["traceEvents"] if e["ph"] == "X" and e["pid"] == 0]
        assert x["ts"] == 0.0 and x["dur"] == 500.0
        assert x["args"] == {"t": 0}

    def test_validator_catches_missing_keys(self):
        bad = {"traceEvents": [{"ph": "X", "ts": 0, "pid": 0}]}
        problems = validate_chrome_trace(bad)
        assert any("missing keys" in p for p in problems)

    def test_validator_catches_non_monotone_track(self):
        bad = {
            "traceEvents": [
                {"ph": "i", "name": "a", "ts": 5.0, "pid": 0, "tid": 0},
                {"ph": "i", "name": "b", "ts": 1.0, "pid": 0, "tid": 0},
            ]
        }
        problems = validate_chrome_trace(bad)
        assert any("monotonicity" in p for p in problems)


class TestRunTrace:
    def test_absorb_merges_tracks_and_counters(self):
        rt = RunTrace()
        a, b = Tracer(1), Tracer(2)
        with a.span("compute"):
            pass
        a.count("messages.remote", 3)
        b.count("messages.remote", 4)
        b.event("sends", local=0, remote=4)
        rt.absorb(a.drain())
        rt.absorb(b.drain())
        assert rt.counters == {"messages.remote": 7}
        assert {pid for pid, _ in rt.spans} == {1}
        assert len(rt.events) == 1

    def test_write_emits_three_artifacts(self, tmp_path):
        rt = RunTrace()
        with rt.tracer.span("timestep", t=0):
            rt.tracer.event("barrier", wall_s=0.01)
        paths = rt.write(tmp_path, run_provenance(algorithm="tdsp"))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "events.jsonl",
            "manifest.json",
            "trace.json",
        ]
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["algorithm"] == "tdsp"
        assert "counters" in manifest and "created_utc" in manifest
        trace = json.loads(paths["trace"].read_text())
        assert validate_chrome_trace(trace) == []
        barrier, span = read_event_log(paths["events"])
        assert barrier["kind"] == "barrier" and barrier["schema"] == EVENT_SCHEMA_VERSION
        assert span["kind"] == "span" and span["name"] == "timestep"
        assert trace == chrome_trace(read_event_log(paths["events"]), {"manifest": "manifest.json"})


class TestProvenance:
    def test_envelope_fields(self):
        prov = run_provenance(algorithm="meme", graph="WIKI")
        assert prov["schema_version"] == 1
        assert prov["algorithm"] == "meme" and prov["graph"] == "WIKI"
        assert "created_utc" in prov and "git_describe" in prov
