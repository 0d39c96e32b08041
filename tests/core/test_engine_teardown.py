"""Every engine exit path reaps what the run started.

An exit path that skips ``TIBSPEngine.run``'s ``finally`` teardown
(cluster-spawn failure, resume-signature mismatch, a Ctrl-C, a fatal
``RunFailureError``) would leak the run's worker agents, or its stream,
past the run.  A run starts no thread of its own: every run here streams
its event log, and observing a run is a reader of that log, in another
process.
"""

import json
import multiprocessing as mp
import threading
import time

import pytest

from repro.core import EngineConfig, Pattern, TimeSeriesComputation, run_application
from repro.generators import road_latency_collection, road_network
from repro.observability import TraceConfig
from repro.partition import partition_graph
from repro.resilience import (
    CheckpointConfig,
    FaultPlan,
    RecoveryPolicy,
    RunFailureError,
)
from repro.storage import GoFS

NUM_PARTITIONS = 2


class Accumulate(TimeSeriesComputation):
    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def compute(self, ctx):
        if ctx.superstep == 0:
            prev = sum(m.payload for m in ctx.messages) if ctx.messages else 0
            ctx.state["acc"] = prev + ctx.subgraph.num_vertices
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx):
        ctx.send_to_next_timestep(ctx.state["acc"])
        ctx.output(ctx.state["acc"])


class InterruptAtT1(Accumulate):
    """Simulates the user hitting Ctrl-C mid-run."""

    def compute(self, ctx):
        if ctx.timestep == 1:
            raise KeyboardInterrupt
        super().compute(ctx)


def _leaked(before, timeout_s=5.0):
    """Worker agents and threads (beyond ``before``) still alive after a
    grace period (reaped processes wind down asynchronously; only ones that
    *stay* alive are leaks)."""
    deadline = time.monotonic() + timeout_s
    while True:
        leaked = mp.active_children() + [
            th for th in threading.enumerate() if th.is_alive() and th not in before
        ]
        if not leaked or time.monotonic() > deadline:
            return leaked
        time.sleep(0.02)


@pytest.fixture
def case():
    tpl = road_network(200, seed=5)
    coll = road_latency_collection(tpl, 3, seed=5)
    pg = partition_graph(tpl, NUM_PARTITIONS)
    return coll, pg


def _stream(tmp_path):
    return TraceConfig(stream_dir=str(tmp_path / "stream"))


class _ForkThatFails:
    """Fork-context stand-in whose agents never start."""

    @staticmethod
    def Process(*args, **kwargs):
        return _ForkThatFails()

    def start(self):
        raise OSError("out of processes")


def test_no_leak_on_cluster_spawn_failure(case, tmp_path, monkeypatch):
    """The stream opens before the cluster; a spawn failure still closes
    it, with the log's last word said."""
    from repro.runtime import process_cluster

    coll, pg = case
    monkeypatch.setattr(process_cluster, "_FORK_CONTEXT", _ForkThatFails)
    before = set(threading.enumerate())
    with pytest.raises(OSError, match="out of processes"):
        run_application(
            Accumulate(), pg, coll,
            config=EngineConfig(executor="process", tracing=_stream(tmp_path)),
        )
    assert _leaked(before) == []
    log = (tmp_path / "stream" / "events.jsonl").read_text().splitlines()
    assert [json.loads(line)["kind"] for line in log] == ["run_begin", "run_end"]


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_streamed_run_starts_no_thread(case, tmp_path, monkeypatch, executor):
    """The driver starts no thread to observe a run, and GoFS views read
    on the thread that asks: a streamed run over a store starts none."""
    coll, pg = case
    GoFS.write_collection(tmp_path / "gofs", pg, coll, packing=2)
    sources = GoFS.partition_views(tmp_path / "gofs")
    started, start = [], threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    run_application(
        Accumulate(), pg, coll, sources=sources,
        config=EngineConfig(executor=executor, tracing=_stream(tmp_path)),
    )
    monkeypatch.undo()
    assert started == []
    assert (tmp_path / "stream" / "events.jsonl").exists()


@pytest.mark.parametrize("executor", ["thread", "bogus"])
def test_unknown_executor_is_refused_before_anything_starts(case, tmp_path, executor):
    """The name is validated where the config is read: no stream, worker
    process or thread exists when the ``ValueError`` leaves."""
    coll, pg = case
    GoFS.write_collection(tmp_path, pg, coll, packing=2)
    sources = GoFS.partition_views(tmp_path)
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="serial, process, socket") as excinfo:
        run_application(
            Accumulate(), pg, coll, sources=sources,
            config=EngineConfig(executor=executor, tracing=_stream(tmp_path)),
        )
    assert repr(executor) in str(excinfo.value)
    assert _leaked(before, timeout_s=0.0) == []
    assert not (tmp_path / "stream").exists()


def test_no_leak_on_keyboard_interrupt(case, tmp_path):
    coll, pg = case
    before = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        run_application(
            InterruptAtT1(), pg, coll,
            config=EngineConfig(tracing=_stream(tmp_path)),
        )
    assert _leaked(before) == []


def test_no_leak_on_resume_signature_mismatch(case, tmp_path):
    coll, pg = case
    ck = CheckpointConfig(dir=tmp_path, every=1)
    run_application(Accumulate(), pg, coll, config=EngineConfig(checkpoint=ck))

    class OtherPattern(Accumulate):
        pattern = Pattern.EVENTUALLY_DEPENDENT

    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="does not match this run"):
        run_application(
            OtherPattern(), pg, coll,
            config=EngineConfig(checkpoint=ck, tracing=_stream(tmp_path)),
            resume_from=True,
        )
    assert _leaked(before) == []


def test_no_leak_on_run_failure(case, tmp_path):
    """A fatal RunFailureError over GoFS views reaps the worker agents the
    run forked."""
    coll, pg = case
    root = tmp_path / "gofs"
    GoFS.write_collection(root, pg, coll, packing=2, binning=3)
    sources = GoFS.partition_views(root)
    before = set(threading.enumerate())
    with pytest.raises(RunFailureError):
        run_application(
            Accumulate(), pg, coll, sources=sources,
            config=EngineConfig(
                executor="process",
                tracing=_stream(tmp_path),
                checkpoint=CheckpointConfig(dir=tmp_path / "ck", every=1),
                faults=FaultPlan.parse("fail_load@t1:p1"),
                recovery=RecoveryPolicy(backoff_s=0.0, max_retries=0),
            ),
        )
    assert _leaked(before) == []
