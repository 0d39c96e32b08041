"""``tibsp top``: the live view is a fold of the streamed event log."""

import io
import json
import os
import pickle

import pytest

from repro.algorithms import InstanceStatisticsComputation, TDSPComputation
from repro.core import EngineConfig, run_application
from repro.generators import road_latency_collection
from repro.observability import TraceConfig
from repro.observability.top import RunFold, render_top, run_top
from repro.partition import HashPartitioner, partition_graph
from repro.storage import GoFS
from tests.conftest import make_grid_template

PARTITIONS = 3


@pytest.fixture
def road_case():
    tpl = make_grid_template(5, 6)
    coll = road_latency_collection(tpl, 6, seed=2, delta=5.0)
    pg = partition_graph(tpl, PARTITIONS, HashPartitioner(seed=1))
    return tpl, coll, pg


def _streamed(road_case, out, executor="serial", sources=None, computation=None):
    _tpl, coll, pg = road_case
    return run_application(
        computation or TDSPComputation(0), pg, coll, sources=sources,
        config=EngineConfig(executor=executor, tracing=TraceConfig(stream_dir=str(out))),
    )


def _lines(path):
    return path.read_text().splitlines(keepends=True)


def _fold_of(path, lines):
    """A fold of ``lines`` as a reader of a log holding only them sees it."""
    path.write_text("".join(lines))
    fold = RunFold()
    fold.read(path)
    return fold


def _rows(panel):
    """Per-partition rows of a panel: ``{partition: [util, busy, ..., age, bar...]}``."""
    rows = {}
    for line in panel.splitlines():
        cells = line.split()
        if len(cells) > 7 and cells[0].isdigit() and cells[1].endswith("%"):
            rows[int(cells[0])] = cells[1:]
    return rows


def _log(steps, num_partitions=PARTITIONS):
    """A synthetic log: run_begin, then one step record per (t, p, busy)."""
    records = [{"schema": 1, "kind": "run_begin", "ts_us": 0.0, "pid": 0,
                "num_partitions": num_partitions, "start": 0, "stop": 4,
                "pattern": "SEQUENTIALLY_DEPENDENT", "executor": "serial", "barrier_s": 0.0}]
    for i, (t, p, busy) in enumerate(steps, start=1):
        records.append({"schema": 1, "kind": "step", "ts_us": float(i), "pid": 0,
                        "phase": "compute", "timestep": t, "superstep": 0,
                        "partition": p, "compute_s": busy, "send_s": 0.0})
    return records


class TestStream:
    def test_nothing_streamed_by_default(self, road_case, tmp_path):
        _tpl, coll, pg = road_case
        res = run_application(TDSPComputation(0), pg, coll)
        assert res.trace is None and not hasattr(res, "live")
        assert not hasattr(EngineConfig(), "live")

    def test_the_log_says_what_it_is_a_log_of(self, road_case, tmp_path):
        res = _streamed(road_case, tmp_path)
        first, *_, last = [json.loads(line) for line in _lines(tmp_path / "events.jsonl")]
        assert first["kind"] == "run_begin"
        assert {k: first[k] for k in ("num_partitions", "start", "stop", "pattern", "executor")} == {
            "num_partitions": PARTITIONS, "start": 0, "stop": 6,
            "pattern": "SEQUENTIALLY_DEPENDENT", "executor": "serial",
        }
        assert first["barrier_s"] == res.metrics.barrier_s
        assert last["kind"] == "run_end" and last["timesteps_executed"] == res.timesteps_executed

    def test_results_bit_identical_streamed_or_not(self, road_case, tmp_path):
        _tpl, coll, pg = road_case
        plain = run_application(TDSPComputation(0), pg, coll)
        streamed = _streamed(road_case, tmp_path)
        assert pickle.dumps(plain.states) == pickle.dumps(streamed.states)
        assert pickle.dumps(plain.outputs) == pickle.dumps(streamed.outputs)


class TestFold:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_totals_equal_the_run_summary(self, road_case, tmp_path, executor):
        res = _streamed(road_case, tmp_path, executor)
        fold = RunFold()
        fold.read(tmp_path / "events.jsonl")
        assert fold.metrics.summary() == res.metrics.summary()
        panel = render_top(fold, now=fold.mtime + 60.0, width=120)
        done = res.metrics.num_timesteps_executed()
        assert f"{done}/6 timesteps, {res.metrics.total_supersteps()} supersteps" in panel
        assert f"messages  {res.metrics.total_messages()} " in panel
        assert sorted(_rows(panel)) == list(range(PARTITIONS))
        # Finished: however old the log, it is not a stall.
        assert f"run ended after {res.timesteps_executed} timesteps" in panel
        assert "STALLED" not in panel

    def test_a_reader_mid_run_sees_monotone_totals(self, road_case, tmp_path):
        """A reader polling a log as it grows — cut anywhere, mid-line too —
        folds only whole records, its totals never step back, and it ends on
        the run's summary."""
        res = _streamed(road_case, tmp_path / "run")
        data = (tmp_path / "run" / "events.jsonl").read_bytes()
        path = tmp_path / "events.jsonl"
        path.write_bytes(b"")
        fold, seen = RunFold(), []
        for cut in range(0, len(data) + 1, 97):
            path.write_bytes(data[:cut])
            fold.read(path)
            if fold.metrics is not None:
                seen.append((fold.metrics.total_supersteps(), fold.metrics.total_messages()))
        path.write_bytes(data)
        fold.read(path)
        assert seen == sorted(seen)
        assert fold.metrics.summary() == res.metrics.summary()
        assert fold.records == data.count(b"\n")


class TestFindings:
    def test_straggler_flagged(self):
        fold = RunFold()
        fold.feed(_log([(0, 0, 0.1), (0, 1, 0.1), (0, 2, 0.1),
                        (1, 0, 0.1), (1, 1, 0.1), (1, 2, 0.5)]))
        rows = _rows(render_top(fold, now=fold.mtime, width=120))
        assert rows[2][-1] == "*straggler"
        assert all("*straggler" not in rows[p] for p in (0, 1))

    def test_balanced_partitions_not_flagged(self):
        fold = RunFold()
        # p2 was slow at t0, not in the last timestep; p1 is 3x the median at
        # t1 but by less than the 0.05 s floor.
        fold.feed(_log([(0, 0, 0.1), (0, 1, 0.1), (0, 2, 0.9),
                        (1, 0, 0.01), (1, 1, 0.03), (1, 2, 0.01)]))
        assert "*straggler" not in render_top(fold, now=fold.mtime, width=120)

    def test_stall_after_threshold_names_a_live_partition(self, road_case, tmp_path):
        _streamed(road_case, tmp_path / "run")
        lines = _lines(tmp_path / "run" / "events.jsonl")
        # What a reader sees while the run is mid-flight: no run_end yet.
        fold = _fold_of(tmp_path / "events.jsonl", [l for l in lines if '"run_end"' not in l])
        quiet = render_top(fold, now=fold.mtime + 1.0)
        assert "running   last landed: compute t=" in quiet and "STALLED" not in quiet
        stalled = render_top(fold, now=fold.mtime + 7.5, stall_after_s=5.0)
        assert "!! STALLED: the round after compute t=" in stalled
        assert "open for 7.5s (threshold 5s)\n   partition " in stalled
        assert "STALLED" not in render_top(fold, now=fold.mtime + 7.5, stall_after_s=10.0)


class TestRender:
    def test_render_contains_progress_and_partitions(self):
        fold = RunFold()
        fold.feed(_log([(0, p, 0.1 * (p + 1)) for p in range(PARTITIONS)]))
        panel = render_top(fold, now=fold.mtime, width=100)
        assert "sequentially_dependent on serial ×3" in panel
        assert "1/4 timesteps, 1 supersteps" in panel
        rows = _rows(panel)
        assert [rows[p][0] for p in range(PARTITIONS)] == ["33%", "67%", "100%"]

    def test_an_ended_run_is_never_stalled(self, road_case, tmp_path):
        _streamed(road_case, tmp_path)
        fold = RunFold()
        fold.read(tmp_path / "events.jsonl")
        assert fold.ended is not None
        assert "STALLED" not in render_top(fold, now=fold.mtime + 3600.0)

    def test_cache_line_from_gofs_counts(self, road_case, tmp_path):
        """The cache line counts the packs read, and a log an older version
        wrote — with prefetch lines, and ``hidden_s`` on its load lines —
        renders the same line."""
        _tpl, coll, pg = road_case
        GoFS.write_collection(tmp_path / "store", pg, coll, packing=2)
        views = GoFS.partition_views(tmp_path / "store")
        # Reads every instance: each of the three packs is loaded once.
        stats = InstanceStatisticsComputation("latency", on="edges", range_low=0.0, range_high=1.0)
        _streamed(road_case, tmp_path / "run", sources=views, computation=stats)
        fold = RunFold()
        fold.read(tmp_path / "run" / "events.jsonl")
        assert fold.packs_loaded == 3 * PARTITIONS == sum(len(v.load_events) for v in views)
        line = f"cache     packs {3 * PARTITIONS}"
        panel = render_top(fold, now=fold.mtime)
        assert line in panel.splitlines() and "hidden" not in panel

        lines = _lines(tmp_path / "run" / "events.jsonl")
        at = {"schema": 1, "ts_us": json.loads(lines[-2])["ts_us"], "pid": 0, "timestep": 2}
        older = [
            {**at, "kind": "prefetch_start", "partition": 0, "pack": 1},
            {**at, "kind": "prefetch_hit", "partition": 0, "pack": 1, "waited_s": 0.0},
            {**at, "kind": "prefetch_miss", "partition": 1, "pack": 1, "seconds": 0.001},
        ]
        for i, text in enumerate(lines):
            record = json.loads(text)
            if record["kind"] in ("slice_load", "instance_load"):
                lines[i] = json.dumps({**record, "hidden_s": 0.0, "prefetched": False}) + "\n"
        (tmp_path / "older").mkdir()
        (tmp_path / "older" / "events.jsonl").write_text(
            "".join(lines[:-1] + [json.dumps(r) + "\n" for r in older] + lines[-1:])
        )
        out = io.StringIO()
        assert run_top(tmp_path / "older", once=True, out=out) == 0
        assert line in out.getvalue().splitlines() and "prefetch" not in out.getvalue()


class TestTornLine:
    def test_reader_skips_a_torn_final_line(self, road_case, tmp_path):
        _streamed(road_case, tmp_path / "run")
        lines = _lines(tmp_path / "run" / "events.jsonl")
        path = tmp_path / "events.jsonl"
        torn = lines[-2][: len(lines[-2]) // 2]
        fold = _fold_of(path, lines[:-2] + [torn])
        assert fold.records == len(lines) - 2
        # The writer finishes the line: the next read picks it up whole.
        with path.open("a") as fh:
            fh.write(lines[-2][len(torn):] + lines[-1])
        fold.read(path)
        assert fold.records == len(lines) and fold.ended is not None


class TestRunTop:
    def test_run_top_once(self, road_case, tmp_path):
        _streamed(road_case, tmp_path)
        out = io.StringIO()
        assert run_top(tmp_path, once=True, out=out) == 0
        assert "tibsp top" in out.getvalue() and "run ended after" in out.getvalue()

    def test_run_top_once_empty_dir(self, tmp_path):
        out = io.StringIO()
        assert run_top(tmp_path, once=True, out=out) == 1
        assert "no run log" in out.getvalue()

    def test_run_top_refuses_a_log_that_is_not_a_run(self, tmp_path):
        (tmp_path / "events.jsonl").write_text(
            json.dumps({"schema": 1, "kind": "step", "ts_us": 0.0, "pid": 0}) + "\n"
        )
        out = io.StringIO()
        assert run_top(tmp_path, once=True, out=out) == 1
        assert "not 'run_begin'" in out.getvalue()

    def test_follow_mode_returns_when_the_run_ends(self, road_case, tmp_path):
        _streamed(road_case, tmp_path)
        os.utime(tmp_path / "events.jsonl")
        out = io.StringIO()
        assert run_top(tmp_path, interval_s=0.1, out=out) == 0
        assert out.getvalue().count("tibsp top") == 1
