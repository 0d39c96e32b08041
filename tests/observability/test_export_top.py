"""Snapshot exporters, schema validation, and the `tibsp top` renderer."""

import io
import json

import pytest

from repro.observability import (
    JsonlSnapshotExporter,
    PrometheusTextfileExporter,
    latest_snapshot,
    read_snapshots,
    render_top,
    run_top,
    validate_live_snapshot,
)
from repro.observability.export import render_prometheus


def _snapshot(seq=0, **overrides):
    record = {
        "schema": 1,
        "kind": "live_snapshot",
        "seq": seq,
        "wall_s": 1.5,
        "phase": "compute",
        "timestep": 3,
        "superstep": 1,
        "progress": {"timesteps_done": 3, "num_timesteps": 6, "supersteps": 10},
        "totals": {
            "total_wall_s": 1.2, "messages": 40, "remote_messages": 10,
            "cut_traffic_ratio": 0.25, "load_blocked_s": 0.1,
            "load_hidden_s": 0.05,
        },
        "partitions": [
            {
                "partition": p, "busy_s": 0.4 + 0.1 * p, "compute_s": 0.3,
                "send_s": 0.1, "messages": 10 + p, "heartbeats": 4,
                "utilization": (0.4 + 0.1 * p) / 0.6, "last_seen_age_s": 0.01,
            }
            for p in range(3)
        ],
        "sources": {"prefetch_hits": 2, "prefetch_misses": 1, "resident_bytes": 1024},
        "health": {"stragglers": [2], "stalled": False, "recent": []},
    }
    record.update(overrides)
    return record


class TestValidation:
    def test_valid_snapshot(self):
        assert validate_live_snapshot(_snapshot()) == []

    def test_rejects_missing_and_wrong_types(self):
        bad = _snapshot()
        del bad["totals"]
        bad["seq"] = "zero"
        errors = validate_live_snapshot(bad)
        assert errors
        joined = " ".join(errors)
        assert "totals" in joined and "seq" in joined

    def test_rejects_malformed_partition_rows(self):
        bad = _snapshot(partitions=[{"partition": 0}])
        assert validate_live_snapshot(bad)


class TestExporters:
    def test_jsonl_exporter_appends_and_is_readable(self, tmp_path):
        path = tmp_path / "live.jsonl"
        exp = JsonlSnapshotExporter(path)
        exp.export(_snapshot(0))
        exp.export(_snapshot(1))
        exp.close()
        exp.close()  # idempotent
        records = read_snapshots(path)
        assert [r["seq"] for r in records] == [0, 1]

    def test_prometheus_exporter_atomic_replace(self, tmp_path):
        path = tmp_path / "live.prom"
        exp = PrometheusTextfileExporter(path)
        exp.export(_snapshot(0))
        first = path.read_text()
        exp.export(_snapshot(1))
        second = path.read_text()
        exp.close()
        # Each export replaces the whole file (textfile-collector contract).
        assert "tibsp_snapshot_seq 0" in first
        assert "tibsp_snapshot_seq 1" in second
        assert not list(tmp_path.glob("*.tmp*"))

    def test_render_prometheus_exposition_format(self):
        text = render_prometheus(_snapshot())
        lines = text.splitlines()
        assert any(l.startswith("# HELP tibsp_messages_total") for l in lines)
        assert any(l.startswith("# TYPE tibsp_messages_total counter") for l in lines)
        assert 'tibsp_partition_messages_total{partition="2"} 12' in lines
        assert "tibsp_source_prefetch_hits_total 2" in lines
        assert "tibsp_stragglers 1" in lines
        # Every sample line is `name{labels} value` with a float-parseable value.
        for line in lines:
            if line.startswith("#") or not line:
                continue
            float(line.rsplit(" ", 1)[1])


class TestLatestSnapshot:
    def test_returns_last_complete_record(self, tmp_path):
        path = tmp_path / "live.jsonl"
        with path.open("w") as fh:
            fh.write(json.dumps(_snapshot(0)) + "\n")
            fh.write(json.dumps(_snapshot(1)) + "\n")
            fh.write('{"kind": "live_snapshot", "seq": 2, "tor')  # torn write
        snap = latest_snapshot(path)
        assert snap["seq"] == 1

    def test_missing_file(self, tmp_path):
        assert latest_snapshot(tmp_path / "nope.jsonl") is None


class TestTopRenderer:
    def test_render_contains_progress_and_partitions(self):
        text = render_top(_snapshot(), width=100)
        assert "3/6 timesteps" in text
        assert "compute t=3 s=1" in text
        for p in range(3):
            assert f"\n   {p} " in text
        assert "*straggler" in text

    def test_render_stalled_warning(self):
        snap = _snapshot(health={"stragglers": [], "stalled": True, "recent": [
            {"kind": "stalled", "partition": 1, "timestep": 3, "superstep": 1,
             "wall_s": 1.4, "seconds": 5.0, "detail": "round open for 5.00s"},
        ]})
        text = render_top(snap)
        assert "STALLED" in text.upper()

    def test_run_top_once(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text(json.dumps(_snapshot(4)) + "\n")
        out = io.StringIO()
        assert run_top(tmp_path, once=True, out=out) == 0
        assert "snapshot #4" in out.getvalue()

    def test_run_top_once_empty_dir(self, tmp_path):
        out = io.StringIO()
        assert run_top(tmp_path, once=True, out=out) == 1
