"""The streamed event log and its reader under faults, GoFS reads, and rollback."""

import json
import signal
import subprocess
import sys
import time

import pytest

from repro.core import EngineConfig, run_application
from repro.observability import TraceConfig, chrome_trace, read_event_log, top, validate_chrome_trace
from repro.observability.top import RunFold, render_top
from repro.resilience import (
    CheckpointConfig,
    FaultPlan,
    RecoveryPolicy,
    RunFailureError,
)
from repro.runtime.metrics import RespawnRecord
from repro.storage import GoFS
from tests.conftest import assert_one_record_stream, folds_equal, refold

from .conftest import AccumulateSum

pytestmark = pytest.mark.resilience


@pytest.fixture(scope="module")
def gofs_root(case, tmp_path_factory):
    _tpl, coll, pg = case
    root = tmp_path_factory.mktemp("gofs-live")
    GoFS.write_collection(root, pg, coll, packing=2, binning=3)
    return root


class TestCrosscheckWithGoFSRecovery:
    """The event log stays complete when GoFS reads, faults and repair mix.

    A journal replay that leaked a second instance_load — or a record that
    misstated its seconds — fails the load total of the round trip, even
    when the error cancels out of the per-timestep wall arithmetic.
    """

    def test_trace_replays_clean(self, case, gofs_root, tmp_path):
        _tpl, coll, pg = case
        sources = GoFS.partition_views(gofs_root)
        result = run_application(
            AccumulateSum(), pg, coll, sources=sources,
            config=EngineConfig(
                tracing=True,
                checkpoint=CheckpointConfig(dir=tmp_path, every=1),
                faults=FaultPlan.parse("kill@t2:p1"),
                recovery=RecoveryPolicy(backoff_s=0.0),
            ),
        )
        assert result.metrics.retries >= 1
        assert_one_record_stream(result)

    def test_load_mismatch_detected(self, case, gofs_root, tmp_path):
        """Corrupting one load's seconds trips the round trip's load total."""
        _tpl, coll, pg = case
        sources = GoFS.partition_views(gofs_root)
        result = run_application(
            AccumulateSum(), pg, coll, sources=sources,
            config=EngineConfig(tracing=True),
        )
        # Corrupt the raw record (event_records() normalizes fresh copies).
        loads = [e for e in result.trace.events if e.get("kind") == "instance_load"]
        assert loads, "expected instance_load events"
        loads[0]["seconds"] += 1.0
        folded = refold(result)
        assert folded.total_load_s() != result.metrics.total_load_s()
        assert folded.summary()["supersteps"] == result.metrics.summary()["supersteps"]
        assert not folds_equal(folded, result.metrics)


def _streamed(case, out, spec, executor="serial", **policy):
    _tpl, coll, pg = case
    return run_application(
        AccumulateSum(), pg, coll,
        config=EngineConfig(
            executor=executor,
            tracing=TraceConfig(stream_dir=str(out / "stream")),
            checkpoint=CheckpointConfig(dir=out / "ck", every=1),
            faults=FaultPlan.parse(spec),
            recovery=RecoveryPolicy(backoff_s=0.0, **policy),
        ),
    )


def _rows(panel):
    """``{partition: (busy, compute, send, msgs, age_s)}`` from a panel's rows."""
    rows = {}
    for line in panel.splitlines():
        cells = line.split()
        if len(cells) > 7 and cells[0].isdigit() and cells[1].endswith("%"):
            busy, compute, send, msgs, age = cells[2:7]
            rows[int(cells[0])] = (busy, compute, send, msgs, float(age.rstrip("s")))
    return rows


class TestLiveThroughRecovery:
    """The reader of the streamed log through repairs and quarantines."""

    def test_summary_exact_after_rollback(self, case, tmp_path):
        result = _streamed(case, tmp_path, "kill@t2:p1")
        assert result.metrics.retries == 1
        fold = RunFold()
        fold.read(tmp_path / "stream" / "events.jsonl")
        # The panel folds the log the run wrote: the repair is in both.
        assert fold.metrics.summary() == result.metrics.summary()
        assert "retries 1  recovery" in render_top(fold, now=fold.mtime)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_one_repair_is_stated_once(self, case, tmp_path, executor):
        """The ledger: one kill is one ``worker_respawn`` line, the record
        ``recovery_actions`` holds, and the reader's ``retries 1``."""
        result = _streamed(case, tmp_path, "kill@t2:p1", executor)
        log = read_event_log(tmp_path / "stream" / "events.jsonl")
        assert log == result.trace.event_records()
        kinds = [e["kind"] for e in log]
        assert kinds.count("worker_respawn") == 1 and "respawn" not in kinds
        (line,) = [e for e in log if e["kind"] == "worker_respawn"]
        (action,) = result.recovery_actions
        assert type(action) is RespawnRecord and RespawnRecord.from_event(line) == action
        # ... which is the record the collector folded: the log folds back
        # to the same repair totals.
        folded = refold(result)
        assert (folded.retries, folded.recovery_s) == (1, {2: action.seconds})
        assert (result.metrics.retries, dict(result.metrics.recovery_s)) == (1, {2: action.seconds})
        fold = RunFold()
        fold.read(tmp_path / "stream" / "events.jsonl")
        assert "retries 1  recovery" in render_top(fold, now=fold.mtime)
        # A repair is a record, not a finding: nothing else is logged for it.
        assert not {"straggler", "stalled"} & set(kinds)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_a_quarantined_partition_stops_heartbeating(self, case, tmp_path, executor):
        """Its synthesized replies are not heard from it: the panel shows it
        silent, its row frozen and its age growing — and, silent by
        decision, it is never the stall suspect."""
        # The delay on p0 after the quarantine lets the ages part visibly.
        result = _streamed(
            case, tmp_path, "kill@t1:p1,kill@t1:p1:i1,kill@t1:p1:i2,delay@t2:s0:p0:d0.05",
            executor, max_retries=2, on_exhausted="quarantine",
        )
        assert result.degraded_partitions == [1] and result.timesteps_executed == 4
        lines = (tmp_path / "stream" / "events.jsonl").read_text().splitlines(keepends=True)
        cut = next(i for i, l in enumerate(lines) if '"worker_quarantined"' in l) + 1
        mid_run = [l for l in lines if '"run_end"' not in l]
        path = tmp_path / "events.jsonl"

        def panel(upto, after_s):
            path.write_text("".join(mid_run[:upto]))
            fold = RunFold()
            fold.read(path)
            return render_top(fold, now=fold.mtime + after_s, stall_after_s=5.0, width=120)

        at_quarantine, later = _rows(panel(cut, 0.0)), _rows(panel(len(mid_run), 0.0))
        assert at_quarantine[1][:4] == later[1][:4], "the dead partition's row moved"
        assert later[0][:4] != at_quarantine[0][:4], "the live partition's row froze"
        assert later[1][4] > at_quarantine[1][4] and later[1][4] > later[0][4]
        assert _rows(panel(len(mid_run), 3.0))[1][4] > later[1][4]
        stalled = panel(len(mid_run), 10.0)
        assert "silent (quarantined)" in stalled and "quarantined [1]" in stalled
        assert "!! STALLED" in stalled and "   partition 0 silent longest" in stalled

    def test_the_stall_threshold_has_one_home(self):
        """The reader's ``stall_after_s`` is the threshold; the policy has no copy."""
        with pytest.raises(TypeError):
            RecoveryPolicy(stall_warning_s=7.5)
        assert top.STALL_AFTER_S == 5.0


class TestStreamedEventLog:
    def _read_events(self, path):
        lines = path.read_text().splitlines()
        return [json.loads(line) for line in lines if line.strip()]

    def test_streamed_log_matches_trace(self, case, tmp_path):
        _tpl, coll, pg = case
        out = tmp_path / "stream"
        result = run_application(
            AccumulateSum(), pg, coll,
            config=EngineConfig(tracing=TraceConfig(stream_dir=str(out))),
        )
        streamed = self._read_events(out / "events.jsonl")
        assert streamed == result.trace.event_records()
        stamps = [e["ts_us"] for e in streamed]
        assert stamps == sorted(stamps)

    def test_abnormal_exit_leaves_valid_jsonl(self, case, tmp_path):
        """A run that dies mid-flight still flushes a parseable event log."""
        _tpl, coll, pg = case
        out = tmp_path / "stream"
        with pytest.raises(RunFailureError):
            run_application(
                AccumulateSum(), pg, coll,
                config=EngineConfig(
                    tracing=TraceConfig(stream_dir=str(out)),
                    checkpoint=CheckpointConfig(dir=tmp_path / "ck", every=1),
                    faults=FaultPlan.parse("kill@t2:p0"),
                    recovery=RecoveryPolicy(backoff_s=0.0, max_retries=0),
                ),
            )
        events = self._read_events(out / "events.jsonl")
        assert events, "abnormal exit left no events behind"
        # Every line is complete JSON with the schema envelope, and the work
        # before the crash (t0/t1 steps + the fault evidence) is present.
        assert all(e.get("schema") == 1 for e in events)
        kinds = {e["kind"] for e in events}
        assert "step" in kinds and "failure" in kinds
        assert {e["timestep"] for e in events if e["kind"] == "step"} >= {0, 1}

    def test_a_killed_run_renders_its_trace(self, tmp_path):
        """SIGKILLed mid-run, a streamed log renders a valid trace holding
        every span it flushed, and compute on every partition."""
        log = tmp_path / "events.jsonl"
        argv = ["run", "meme", "--scale", "300", "--instances", "1000", "--partitions", "3",
                "--stream", str(tmp_path)]
        run = subprocess.Popen([sys.executable, "-m", "repro.cli", *argv], stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not (log.exists() and any(
            e["kind"] == "step" and e["timestep"] == 3 for e in read_event_log(log)
        )):
            time.sleep(0.005)
        run.send_signal(signal.SIGKILL)
        assert run.wait(timeout=10) == -signal.SIGKILL
        records = read_event_log(log)
        assert records[-1]["kind"] != "run_end"
        trace = chrome_trace(records)
        assert validate_chrome_trace(trace) == []
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == sum(r["kind"] == "span" for r in records)
        assert {e["pid"] for e in spans if e["name"] == "compute"} == {1, 2, 3}
