"""Surgical recovery: one worker respawns while the cohort holds at the barrier."""

import pytest

from repro.core import EngineConfig, Pattern, run_application
from repro.resilience import (
    CheckpointConfig,
    FaultPlan,
    HostSupervisor,
    RecoveryPolicy,
)
from repro.runtime import Cluster, RunMeta, WorkerLost
from repro.runtime.metrics import MetricsCollector

from .conftest import NUM_PARTITIONS, AccumulateSum, RingRelay

pytestmark = pytest.mark.resilience

EXECUTORS = ["serial", "process"]


def _config(executor, ckpt_dir, faults, *, tracing=False, **recovery_kwargs):
    return EngineConfig(
        executor=executor,
        tracing=tracing,
        checkpoint=CheckpointConfig(dir=ckpt_dir, every=1),
        faults=FaultPlan.parse(faults) if isinstance(faults, str) else faults,
        recovery=RecoveryPolicy(backoff_s=0.0, **recovery_kwargs),
    )


def _identical(a, b):
    assert a.outputs == b.outputs
    assert a.merge_outputs == b.merge_outputs
    assert a.states == b.states


class TestSurgicalSingleKill:
    """ISSUE 8 acceptance: a seeded single-host kill respawns exactly one
    worker — the survivors hold at the barrier, nothing else rolls back."""

    @pytest.fixture(scope="class")
    def baselines(self, case):
        _tpl, coll, pg = case
        return {
            ex: run_application(
                AccumulateSum(), pg, coll,
                config=EngineConfig(executor=ex),
            )
            for ex in EXECUTORS
        }

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_exactly_one_respawn(self, case, tmp_path, baselines, executor):
        _tpl, coll, pg = case
        result = run_application(
            AccumulateSum(), pg, coll,
            config=_config(executor, tmp_path, "kill@t2:p1", tracing=True),
        )
        _identical(result, baselines[executor])
        assert result.failure is None
        assert result.degraded_partitions == []

        # Provenance: exactly one surgical respawn, for the killed partition,
        # at the first post-genesis incarnation.
        respawns = [a for a in result.recovery_actions if a.kind == "worker_respawn"]
        assert len(respawns) == 1
        action = respawns[0]
        assert action.partition == 1
        assert action.timestep == 2
        assert action.incarnation == 1
        assert action.attempt == 1
        assert action.seconds > 0

        # Trace: one worker_respawn event — the action's own fields — with
        # N-1 survivors held at the barrier.
        events = [
            e for e in result.trace.event_records() if e["kind"] == "worker_respawn"
        ]
        assert len(events) == 1
        assert action.as_event().items() <= events[0].items()
        assert events[0]["survivors"] == NUM_PARTITIONS - 1
        assert events[0]["partition"] == 1
        assert events[0]["incarnation"] == 1

        if executor == "process":
            # The hardened wire protocol kept count of its traffic.
            assert result.protocol_stats["commands_sent"] > 0
            assert result.protocol_stats["resends"] == 0

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_bit_identical_across_executors(self, case, tmp_path, baselines, executor):
        """The same fault plan recovers byte-identical on every executor,
        and all executors agree with each other (baselines already do)."""
        _tpl, coll, pg = case
        num_sg = len(pg.subgraphs)
        base = run_application(
            RingRelay(num_sg), pg, coll,
            config=EngineConfig(executor=executor),
        )
        result = run_application(
            RingRelay(num_sg), pg, coll,
            config=_config(executor, tmp_path, "kill@t1:s1:p0"),
        )
        _identical(result, base)
        assert [a.kind for a in result.recovery_actions] == ["worker_respawn"]
        assert result.recovery_actions[0].partition == 0

    def test_replay_counts_reflect_journal(self, case, tmp_path):
        """A kill at the end-of-timestep round replays the rounds journaled
        since the last checkpoint (the supersteps of that timestep)."""
        _tpl, coll, pg = case
        result = run_application(
            AccumulateSum(), pg, coll,
            config=_config("serial", tmp_path, "kill@t2:eot:p0"),
        )
        assert result.failure is None
        action = result.recovery_actions[0]
        # Checkpoint every=1 truncates at each boundary: the journal holds
        # t2's single superstep (which opened it) before the eot round fails.
        assert action.replayed_rounds == 1


class TestQuarantine:
    """Graceful exhaustion: the run completes degraded instead of dying."""

    def test_persistent_kill_quarantines(self, case, tmp_path):
        _tpl, coll, pg = case
        faults = "kill@t1:p0,kill@t1:p0:i1,kill@t1:p0:i2,kill@t1:p0:i3"
        result = run_application(
            AccumulateSum(), pg, coll,
            config=_config(
                "serial", tmp_path, faults, tracing=True,
                max_retries=2, on_exhausted="quarantine",
            ),
        )
        # The run completed; partition 0 is gone, partition 1's work stands.
        assert result.failure is None
        assert result.degraded_partitions == [0]
        # The actions are the repairs that completed; giving up is a
        # decision, stated once, in the failure log.
        assert [a.kind for a in result.recovery_actions] == ["worker_respawn"] * 2
        # The retry budget was burned first: retry, retry, quarantine.
        assert [r.action for r in result.failure_log] == [
            "retry", "retry", "quarantine"
        ]
        event_kinds = {e["kind"] for e in result.trace.event_records()}
        assert "worker_quarantined" in event_kinds

    def test_deliveries_to_quarantined_are_dropped_and_counted(self, case, tmp_path):
        """Cross-partition frames addressed to a dead partition are dropped
        at the driver and counted, not silently lost.  (AccumulateSum's
        temporal sends are host-local and never reach the driver, so this
        needs RingRelay's cross-partition ring.)"""
        _tpl, coll, pg = case
        faults = "kill@t1:p0,kill@t1:p0:i1,kill@t1:p0:i2,kill@t1:p0:i3"
        result = run_application(
            RingRelay(len(pg.subgraphs)), pg, coll,
            config=_config(
                "serial", tmp_path, faults, tracing=True,
                max_retries=2, on_exhausted="quarantine",
            ),
        )
        assert result.failure is None
        assert result.degraded_partitions == [0]
        assert result.protocol_stats["dropped_to_quarantined"] > 0
        dropped = [
            e for e in result.trace.event_records() if e["kind"] == "frames_dropped"
        ]
        assert dropped and all(e["partition"] == 0 for e in dropped)
        assert sum(e["messages"] for e in dropped) == (
            result.protocol_stats["dropped_to_quarantined"]
        )

    def test_quarantine_off_raises(self, case, tmp_path):
        from repro.resilience import RunFailureError

        _tpl, coll, pg = case
        faults = "kill@t1:p0,kill@t1:p0:i1,kill@t1:p0:i2,kill@t1:p0:i3"
        with pytest.raises(RunFailureError, match="WorkerLost"):
            run_application(
                AccumulateSum(), pg, coll,
                config=_config("serial", tmp_path, faults, max_retries=2),
            )


class ListRecorder:
    """A ``RunRecorder`` stand-in that keeps every fact it is told, in order."""

    def __init__(self):
        self.metrics = MetricsCollector(NUM_PARTITIONS)
        self.facts: list[str] = []

    def emit(self, record):
        self.metrics.fold(record)
        self.facts.append(record.kind)

    def event(self, kind, **fields):
        self.facts.append(kind)


class TestStatesEachFactOnce:
    """The supervisor tells one recorder; it never asks which sinks are on."""

    def _supervised(self, cluster, recorder):
        policy = RecoveryPolicy(backoff_s=0.0)
        supervisor = HostSupervisor(cluster, policy, recorder=recorder)
        supervisor.round("superstep", 0, 0, [[] for _ in range(NUM_PARTITIONS)])
        return supervisor

    def test_one_kill_one_respawn_record(self, case, sources):
        _tpl, coll, pg = case
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
        cluster = Cluster(
            pg, AccumulateSum(), meta, sources,
            fault_plan=FaultPlan.parse("kill@t0:s0:p1"),
        )
        recorder = ListRecorder()
        self._supervised(cluster, recorder)
        assert recorder.facts == ["failure", "worker_respawn"]
        assert recorder.metrics.retries == 1
        assert recorder.metrics.total_recovery_s() == recorder.metrics.repairs[0].seconds
        (failure,) = recorder.metrics.failures
        assert (failure.error, failure.partition, failure.attempt, failure.action) == (
            "WorkerLost", 1, 1, "retry"
        )

    def test_one_cured_drop_one_protocol_retry_record(self, case, sources):
        _tpl, coll, pg = case
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
        recorder = ListRecorder()
        with Cluster(
            pg, AccumulateSum(), meta, sources, remote=True,
            fault_plan=FaultPlan.parse("drop_frame@t0:s0:p0"),
            gather_timeout_s=0.5,
        ) as cluster:
            self._supervised(cluster, recorder)
        assert recorder.facts == ["failure", "protocol_retry"]
        assert recorder.metrics.retries == 1
        assert [a.kind for a in recorder.metrics.repairs] == ["protocol_retry"]
        assert [(f.error, f.action) for f in recorder.metrics.failures] == [
            ("GatherTimeout", "retry")
        ]


def test_one_round_path():
    """Every driver-to-agent exchange is ``HostSupervisor.round``, and every
    run is supervised under ``RecoveryPolicy()`` unless told otherwise."""
    from tests.test_structure import grep

    calls = [hit.split(":")[0] for hit in grep(r"\.run_round\(", ("src/",), None)]
    assert calls == ["src/repro/resilience/supervisor.py"]
    assert EngineConfig().recovery == RecoveryPolicy()


class _DesyncedChannel:
    """A channel whose reply stream lost its frame boundaries: every read
    fails the way a length prefix past the frame cap does."""

    def __init__(self, inner):
        self.inner = inner

    def post(self, command):
        self.inner.post(command)

    def receive(self, deadline):
        raise WorkerLost("transport frame declares 2**60 bytes; stream is desynced or corrupt")

    def close(self):
        self.inner.close()


def test_a_desynced_stream_is_repaired_not_resent(case, sources):
    """A resend cannot read on from a stream with no frame boundary left:
    the partition is respawned at once."""
    _tpl, coll, pg = case
    meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
    cluster = Cluster(pg, AccumulateSum(), meta, sources)
    cluster._channels[1] = _DesyncedChannel(cluster._channels[1])
    recorder = ListRecorder()
    supervisor = HostSupervisor(cluster, RecoveryPolicy(backoff_s=0.0), recorder=recorder)
    supervisor.round("superstep", 0, 0, [[] for _ in range(NUM_PARTITIONS)])
    assert recorder.facts == ["failure", "worker_respawn"]
    assert [(f.partition, f.error) for f in recorder.metrics.failures] == [(1, "WorkerLost")]
    assert cluster.protocol_stats()["resends"] == 0
