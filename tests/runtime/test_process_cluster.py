"""Tests for a cluster whose agents leave the driver (forked agents, errors, lifecycle)."""

import time

import numpy as np
import pytest

from repro.core import EngineConfig, Pattern, TimeSeriesComputation, run_application
from repro.generators import road_latency_collection, road_network
from repro.partition import partition_graph
from repro.resilience import FaultPlan
from repro.runtime import Cluster, CollectionInstanceSource, RunMeta
from repro.runtime import process_cluster
from repro.runtime.process_cluster import GatherTimeout, WorkerError


class EmitSum(TimeSeriesComputation):
    """Module-level (picklable) computation for worker processes."""

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def compute(self, ctx):
        if ctx.superstep == 0:
            prev = sum(m.payload for m in ctx.messages) if ctx.messages else 0
            ctx.state["acc"] = prev + ctx.subgraph.num_vertices
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx):
        ctx.send_to_next_timestep(ctx.state["acc"])
        ctx.output(ctx.state["acc"])


class BoomAtTimestep(TimeSeriesComputation):
    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def compute(self, ctx):
        if ctx.timestep == 1:
            raise ValueError("worker-side failure")
        ctx.vote_to_halt()


@pytest.fixture
def case():
    tpl = road_network(500, seed=8)
    coll = road_latency_collection(tpl, 4, seed=8)
    pg = partition_graph(tpl, 2)
    sources = [CollectionInstanceSource(coll) for _ in range(2)]
    return tpl, coll, pg, sources


class TestLifecycle:
    def test_end_to_end_matches_serial(self, case):
        tpl, coll, pg, sources = case
        serial = run_application(EmitSum(), pg, coll)
        proc = run_application(EmitSum(), pg, coll, config=EngineConfig(executor="process"))
        assert serial.outputs == proc.outputs
        assert set(proc.states) == set(serial.states)

    def test_shutdown_idempotent(self, case):
        tpl, coll, pg, sources = case
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
        cluster = Cluster(pg, EmitSum(), meta, sources, remote=True)
        forked = cluster._channels[1].proc
        cluster.shutdown()
        cluster.shutdown()  # second call is a no-op
        assert cluster._channels == [] and not forked.is_alive()

    def test_source_count_validated(self, case):
        tpl, coll, pg, sources = case
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
        with pytest.raises(ValueError, match="instance source per partition"):
            Cluster(pg, EmitSum(), meta, sources[:1], remote=True)

    def test_resident_bytes_roundtrip(self, case):
        tpl, coll, pg, sources = case
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
        with Cluster(pg, EmitSum(), meta, sources, remote=True) as cluster:
            cluster.run_round("superstep", 0, 0, [[], []])
            resident = cluster.run_round("resident", -1, -1, None)
            assert len(resident) == 2
            assert all(b > 0 for b in resident)


class _FailSecondSpawnContext:
    """Fork-context stand-in whose 2nd Process creation fails.

    Wraps the real fork context so the first worker genuinely starts, then
    raises when the cluster constructor asks for the next one — the scenario
    where a partially constructed cluster used to leak live workers.
    """

    def __init__(self, real):
        self._real = real
        self.started: list = []
        self._spawned = 0

    def Process(self, *args, **kwargs):
        self._spawned += 1
        if self._spawned >= 2:
            raise OSError("out of processes")
        proc = self._real.Process(*args, **kwargs)
        self.started.append(proc)
        return proc


class TestConstructorFailure:
    def test_started_workers_not_leaked(self, case, monkeypatch):
        """A failing spawn mid-constructor must shut down earlier workers.

        Three partitions: partition 0 runs in the driver, so partition 1's
        agent is the first fork and partition 2's the one that fails.
        """
        tpl, coll, _pg, _sources = case
        pg = partition_graph(tpl, 3)
        sources = [CollectionInstanceSource(coll) for _ in range(3)]
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
        ctx = _FailSecondSpawnContext(process_cluster._FORK_CONTEXT)
        monkeypatch.setattr(process_cluster, "_FORK_CONTEXT", ctx)
        with pytest.raises(OSError, match="out of processes"):
            Cluster(pg, EmitSum(), meta, sources, remote=True)
        assert len(ctx.started) == 1
        ctx.started[0].join(timeout=5)
        assert not ctx.started[0].is_alive()


class TestGatherDeadlineIsPerRound:
    def test_round_shares_one_deadline(self, case):
        """ISSUE 9 regression: a gather round times out after one
        ``gather_timeout_s`` total, not one per partition.

        p0 replies late (0.5 s) but within the 0.8 s round budget; p1's
        reply is swallowed.  Under the old per-partition clocks p1's
        window only opened after p0's reply, pushing the failure past
        1.3 s; with a round deadline it fires at ~0.8 s.
        """
        tpl, coll, pg, sources = case
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
        cluster = Cluster(
            pg, EmitSum(), meta, sources, remote=True,
            gather_timeout_s=0.8,
            fault_plan=FaultPlan.parse(
                "delay@t0:s0:p0:d0.5,drop_frame@t0:s0:p1", seed=1
            ),
        )
        try:
            start = time.monotonic()
            outcomes = cluster.run_round("superstep", 0, 0, [[], []])
            elapsed = time.monotonic() - start
        finally:
            cluster.shutdown()
        # p0's late reply is gathered; p1's swallowed one is captured.
        assert not isinstance(outcomes[0], GatherTimeout)
        assert isinstance(outcomes[1], GatherTimeout) and outcomes[1].partition == 1
        assert elapsed >= 0.55, f"timed out before the round budget ({elapsed:.2f}s)"
        assert elapsed < 1.15, (
            f"round took {elapsed:.2f}s — looks like per-partition deadlines "
            "(worst case N x gather_timeout_s) regressed"
        )


class TestErrorPropagation:
    def test_worker_error_reraised_with_traceback(self, case):
        tpl, coll, pg, sources = case
        with pytest.raises(WorkerError, match="worker-side failure"):
            run_application(
                BoomAtTimestep(),
                pg,
                coll,
                config=EngineConfig(executor="process"),
            )
