"""The acceptance matrix: every seeded fault either recovers bit-identical
or surfaces as a structured RunFailure — across all three executors, with
no hangs and no leaked worker processes."""

import os

import pytest

from repro.algorithms import TDSPComputation, tdsp_labels_from_result
from repro.algorithms.reference import time_expanded_dijkstra
from repro.core import EngineConfig, run_application
from repro.resilience import (
    FAULT_KINDS,
    CheckpointConfig,
    FaultPlan,
    InjectedFault,
    RecoveryPolicy,
    RunFailureError,
)
from repro.runtime import RecoverableWorkerError

from ..conftest import hosts_for
from ..core.test_executor_equivalence import _canonical
from .conftest import AccumulateSum, RingRelay

pytestmark = pytest.mark.resilience

#: One spec per fault kind, spread over coordinates (superstep 0, later supersteps, eot).
FAULT_MATRIX = [
    "kill@t2:p1",
    "kill@t1:eot:p0",
    "delay@t1:s0:p0:d0.15",
    "drop_frame@t2:p0",
    "corrupt_frame@t1:p1",
    "fail_load@t2:s0:p0",
]

#: Plans beyond the matrix that every executor must repair alike.
ALIKE_PLANS = [*FAULT_MATRIX, "dup_frame@t1:p0", "reorder@t2:p1"]


def _config(executor, ckpt_dir, faults, hosts=None, **recovery_kwargs):
    return EngineConfig(
        executor=executor,
        hosts=hosts,
        # Longer than any delay above, short enough that a dropped reply
        # costs half a second.
        gather_timeout_s=0.5,
        checkpoint=CheckpointConfig(dir=ckpt_dir, every=1),
        faults=FaultPlan.parse(faults, seed=3) if isinstance(faults, str) else faults,
        recovery=RecoveryPolicy(backoff_s=0.0, **recovery_kwargs),
    )


def _identical(a, b):
    assert a.outputs == b.outputs
    assert a.merge_outputs == b.merge_outputs
    assert a.states == b.states


class TestFaultMatrixProcess:
    """Process executor: real worker death, lost replies, corrupt streams."""

    @pytest.fixture(scope="class")
    def baseline(self, case):
        _tpl, coll, pg = case
        from repro.runtime import CollectionInstanceSource

        sources = [CollectionInstanceSource(coll) for _ in range(pg.num_partitions)]
        return run_application(
            AccumulateSum(), pg, coll, sources=sources, config=EngineConfig(executor="process")
        )

    @pytest.mark.parametrize("faults", FAULT_MATRIX)
    def test_recovers_bit_identical(self, case, sources, tmp_path, baseline, faults):
        _tpl, coll, pg = case
        result = run_application(
            AccumulateSum(), pg, coll, sources=sources,
            config=_config("process", tmp_path, faults),
        )
        _identical(result, baseline)
        if "delay" in faults:
            # A straggler under a generous gather timeout is slowness, not
            # a failure: no retry, no failure-log entry.
            assert result.metrics.retries == 0 and result.failure_log == []
        else:
            assert result.metrics.retries >= 1
            assert result.failure_log and result.failure_log[0].action == "retry"
            assert result.metrics.total_recovery_s() > 0
        assert result.failure is None

    @staticmethod
    def _repairs_on_every_executor(case, sources, tmp_path, baseline, agents, plan):
        """Run ``plan`` on serial, forked agents and ``hosts`` agents; each
        ends where the fault-free run ends, and all state the same repairs."""
        _tpl, coll, pg = case
        repairs = {}
        for executor in ("serial", "process", "socket"):
            hosts = hosts_for(executor, agents, pg.num_partitions)
            result = run_application(
                AccumulateSum(), pg, coll, sources=sources,
                config=_config(executor, tmp_path / executor, plan, hosts),
            )
            _identical(result, baseline)
            assert result.failure is None
            repairs[executor] = (
                [(a.kind, a.partition, a.timestep) for a in result.recovery_actions],
                [(r.kind, r.action) for r in result.failure_log],
            )
        assert repairs["serial"] == repairs["process"] == repairs["socket"]
        return repairs["serial"]

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_a_host_fault_is_repaired_alike_on_every_executor(
        self, case, sources, tmp_path, baseline, external_workers, kind
    ):
        """A kind names one behaviour and one repair, whichever executor runs it."""
        actions, _log = self._repairs_on_every_executor(
            case, sources, tmp_path, baseline, external_workers, f"{kind}@t2:p1"
        )
        # A straggler inside the gather timeout and a duplicate or stale
        # frame dropped by sequence number need no repair.
        assert bool(actions) == (kind not in ("delay", "dup_frame", "reorder"))

    @pytest.mark.parametrize("plan", ALIKE_PLANS)
    def test_every_plan_is_repaired_alike_on_every_executor(
        self, case, sources, tmp_path, baseline, external_workers, plan
    ):
        self._repairs_on_every_executor(
            case, sources, tmp_path, baseline, external_workers, plan
        )

    @pytest.mark.parametrize("plan", ["fail_load@t2:p1", "kill@t2:s0:p1"])
    def test_a_fault_at_superstep_0_is_repaired_bit_identical(
        self, case, sources, tmp_path, baseline, plan
    ):
        """Superstep 0 opens the timestep: a failed load or a kill there is
        one respawn that replays nothing (the t=1 close truncated the
        journal to the in-flight round) and re-issues superstep 0."""
        _tpl, coll, pg = case
        for executor in ("serial", "process"):
            result = run_application(
                AccumulateSum(), pg, coll, sources=sources,
                config=_config(executor, tmp_path / executor, plan),
            )
            _identical(result, baseline)
            assert result.failure is None
            (respawn,) = result.recovery_actions
            assert (respawn.kind, respawn.timestep, respawn.superstep, respawn.partition,
                    respawn.replayed_rounds) == ("worker_respawn", 2, 0, 1, 0)

    def test_no_leaked_workers_after_recovery(self, case, sources, tmp_path):
        import multiprocessing as mp

        _tpl, coll, pg = case
        run_application(
            AccumulateSum(), pg, coll, sources=sources,
            config=_config("process", tmp_path, "kill@t1:p0"),
        )
        assert mp.active_children() == []


@pytest.mark.parametrize("executor", ["serial"])
class TestFaultMatrixInProcess:
    """The in-process executor: a kill closes the in-memory session."""

    @pytest.mark.parametrize("faults", ["kill@t2:p1", "fail_load@t2:s0:p0"])
    def test_recovers_bit_identical(self, case, tmp_path, executor, faults):
        _tpl, coll, pg = case
        baseline = run_application(
            AccumulateSum(), pg, coll, config=EngineConfig(executor=executor)
        )
        result = run_application(
            AccumulateSum(), pg, coll, config=_config(executor, tmp_path, faults)
        )
        _identical(result, baseline)
        assert result.metrics.retries == 1

    def test_multi_superstep_with_merge(self, case, tmp_path, executor):
        """A kill mid-BSP with in-flight frames, repaired by replaying the
        timestep's rounds from its opening checkpoint, and a merge phase."""
        _tpl, coll, pg = case
        comp = RingRelay(len(pg.subgraphs))
        baseline = run_application(comp, pg, coll, config=EngineConfig(executor=executor))
        cfg = EngineConfig(
            executor=executor,
            checkpoint=CheckpointConfig(dir=tmp_path, every=1),
            # The second spec targets incarnation 1: the first recovery
            # respawns p1's worker surgically (only *its* incarnation is
            # bumped), and i0 faults never refire after that.
            faults=FaultPlan.parse("kill@t2:s2:p1,kill@t3:eot:p1:i1", seed=5),
            recovery=RecoveryPolicy(backoff_s=0.0),
        )
        result = run_application(comp, pg, coll, config=cfg)
        _identical(result, baseline)
        assert result.metrics.retries == 2


class TestTDSPRecovery:
    """TDSP's open mask over the cut rows is resident state: a checkpoint
    carries it, a restore brings it back and a replay rebuilds the rows a
    timestep shipped before the kill.  In this case rows close at the ends of
    timesteps 1 and 2, so the kills land on a timestep holding shipped rows
    (``s1``), on the call that closes them (``eot``) and after a close."""

    KILLS = ["kill@t1:s1:p1", "kill@t1:eot:p1", "kill@t2:p1"]

    @pytest.fixture(scope="class")
    def baseline(self, case):
        _tpl, coll, pg = case
        result = run_application(TDSPComputation(0), pg, coll)
        assert any(not st["open"].all() for st in result.states.values())
        return result

    @pytest.mark.parametrize("checkpoint", [True, False], ids=["checkpoint-every-1", "genesis"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("faults", KILLS)
    def test_recovers_bit_identical(
        self, case, sources, tmp_path, baseline, faults, executor, checkpoint
    ):
        tpl, coll, pg = case
        result = run_application(
            TDSPComputation(0), pg, coll, sources=sources,
            config=EngineConfig(
                executor=executor,
                checkpoint=CheckpointConfig(dir=tmp_path, every=1) if checkpoint else None,
                faults=FaultPlan.parse(faults, seed=3),
                recovery=RecoveryPolicy(backoff_s=0.0),
            ),
        )
        assert result.failure is None and result.metrics.retries == 1
        assert _canonical(result.outputs) == _canonical(baseline.outputs)
        assert _canonical(result.states) == _canonical(baseline.states)
        counts = ("timesteps", "supersteps", "messages", "remote_messages", "frames")
        got, want = result.metrics.summary(), baseline.metrics.summary()
        assert {c: got[c] for c in counts} == {c: want[c] for c in counts}
        labels = tdsp_labels_from_result(result, tpl.num_vertices)
        assert labels.tobytes() == time_expanded_dijkstra(coll, 0).tobytes()


class TestExhaustedRetries:
    """A fault re-armed for every incarnation defeats the retry budget."""

    PERSISTENT = "kill@t1:p0,kill@t1:p0:i1,kill@t1:p0:i2,kill@t1:p0:i3"

    def test_raise_mode_carries_partial(self, case, tmp_path):
        _tpl, coll, pg = case
        cfg = _config("serial", tmp_path, self.PERSISTENT, max_retries=2)
        with pytest.raises(RunFailureError) as excinfo:
            run_application(AccumulateSum(), pg, coll, config=cfg)
        failure = excinfo.value.failure
        assert failure.timestep == 1
        assert "WorkerLost" in failure.reason
        # 1 initial incident + 2 retries, each logged; the last marked raise.
        assert [r.action for r in failure.failure_log] == ["retry", "retry", "raise"]
        partial = excinfo.value.partial
        assert partial is not None and partial.timesteps_executed == 1

    def test_degrade_mode_returns_partial(self, case, sources, tmp_path):
        _tpl, coll, pg = case
        cfg = _config(
            "process", tmp_path, self.PERSISTENT, max_retries=2, on_exhausted="degrade"
        )
        result = run_application(AccumulateSum(), pg, coll, sources=sources, config=cfg)
        assert result.failure is not None
        assert result.failure.timestep == 1
        assert result.timesteps_executed == 1
        assert len(result.failure_log) == 3
        # The recovered prefix is intact: timestep 0's outputs survived.
        assert all(t == 0 for t, _sg, _rec in result.outputs)

    def test_app_errors_are_not_retried(self, case, tmp_path):
        """Deterministic computation bugs must surface, not burn retries."""
        from repro.core import Pattern, TimeSeriesComputation

        class Boom(TimeSeriesComputation):
            pattern = Pattern.SEQUENTIALLY_DEPENDENT

            def compute(self, ctx):
                if ctx.timestep == 1:
                    raise ValueError("app bug")
                ctx.vote_to_halt()

        _tpl, coll, pg = case
        cfg = _config("serial", tmp_path, None)
        with pytest.raises(ValueError, match="app bug"):
            run_application(Boom(), pg, coll, config=cfg)


class DiskGone(AccumulateSum):
    """Partition 1 loses its storage at timestep 1 (a transient, not a bug)."""

    def compute(self, ctx):
        if ctx.timestep == 1 and ctx.subgraph.partition_id == 1:
            raise InjectedFault("disk gone", partition=1)
        super().compute(ctx)


class DiesOnce(AccumulateSum):
    """Partition 1's first agent exits mid-timestep; the marker file keeps
    its respawned incarnation alive."""

    def __init__(self, marker):
        self.marker = marker

    def compute(self, ctx):
        first = not os.path.exists(self.marker)
        if ctx.timestep == 1 and ctx.subgraph.partition_id == 1 and first:
            open(self.marker, "w").close()
            os._exit(1)
        super().compute(ctx)


class TestDefaultPolicy:
    """No policy given is ``RecoveryPolicy()``, with or without a fault plan:
    every run is supervised, so a failure is repaired or, once the retries
    run out, raised as one structured failure on every executor."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_exhausted_failure_is_raised(self, case, sources, executor):
        _tpl, coll, pg = case
        config = EngineConfig(executor=executor)
        assert config.recovery == RecoveryPolicy()
        with pytest.raises(RunFailureError, match="disk gone") as excinfo:
            run_application(DiskGone(), pg, coll, sources=sources, config=config)
        cause = excinfo.value.__cause__
        assert isinstance(cause, RecoverableWorkerError) and cause.partition == 1
        log = excinfo.value.failure.failure_log
        attempts = config.recovery.max_retries + 1
        assert [(r.partition, r.attempt) for r in log] == [(1, a) for a in range(1, attempts + 1)]
        assert log[-1].action == "raise"

    def test_a_dead_agent_is_repaired_without_a_fault_plan(self, case, sources, tmp_path):
        _tpl, coll, pg = case
        baseline = run_application(AccumulateSum(), pg, coll)
        marker = tmp_path / "died"
        result = run_application(
            DiesOnce(str(marker)), pg, coll, sources=sources,
            config=EngineConfig(executor="process"),
        )
        assert marker.exists()
        _identical(result, baseline)
        assert result.failure is None
        assert [a.kind for a in result.recovery_actions] == ["worker_respawn"]
        assert result.recovery_actions[0].partition == 1


class TestResume:
    def test_crash_then_resume_bit_identical(self, case, tmp_path):
        _tpl, coll, pg = case
        baseline = run_application(AccumulateSum(), pg, coll)
        with pytest.raises(RunFailureError):
            run_application(
                AccumulateSum(), pg, coll,
                config=_config("serial", tmp_path, "kill@t2:p0", max_retries=0),
            )
        resumed = run_application(
            AccumulateSum(), pg, coll,
            config=EngineConfig(checkpoint=CheckpointConfig(dir=tmp_path)),
            resume_from=True,
        )
        _identical(resumed, baseline)
        assert resumed.timesteps_executed == baseline.timesteps_executed

    def test_resume_by_name_and_signature_check(self, case, tmp_path):
        _tpl, coll, pg = case
        cfg = EngineConfig(checkpoint=CheckpointConfig(dir=tmp_path, every=1, retain=10))
        run_application(AccumulateSum(), pg, coll, config=cfg)
        comp = RingRelay(len(pg.subgraphs))
        with pytest.raises(ValueError, match="does not match this run"):
            run_application(comp, pg, coll, config=cfg, resume_from=True)

    def test_resume_requires_checkpoint_config(self, case):
        _tpl, coll, pg = case
        with pytest.raises(ValueError, match="resume_from requires"):
            run_application(AccumulateSum(), pg, coll, resume_from=True)


class CarryOver(AccumulateSum):
    """Keeps a running total in subgraph state across timesteps, so a host
    restored from the wrong checkpoint answers with the wrong total."""

    def compute(self, ctx):
        if ctx.superstep == 0:
            ctx.state["acc"] = ctx.state.get("acc", 0) + ctx.subgraph.num_vertices + ctx.timestep
        ctx.vote_to_halt()


class TestRepairBase:
    """A repair restores from this run's own replay base: the checkpoint it
    resumed from or last wrote, else genesis — never whatever is newest in
    the directory."""

    def _killed(self, ckpt_dir):
        return EngineConfig(
            checkpoint=CheckpointConfig(dir=ckpt_dir, every=3, retain=10),
            faults=FaultPlan.parse("kill@t1:p1", seed=3),
            recovery=RecoveryPolicy(backoff_s=0.0),
        )

    @pytest.fixture
    def earlier_run(self, case, tmp_path):
        """A finished run of the same shape left a checkpoint per timestep."""
        _tpl, coll, pg = case
        cfg = EngineConfig(checkpoint=CheckpointConfig(dir=tmp_path, every=1, retain=10))
        run_application(CarryOver(), pg, coll, config=cfg)
        return sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("ckpt-"))

    def test_a_fresh_run_repairs_from_genesis(self, case, tmp_path, earlier_run):
        _tpl, coll, pg = case
        baseline = run_application(CarryOver(), pg, coll)
        result = run_application(CarryOver(), pg, coll, config=self._killed(tmp_path))
        assert [a.kind for a in result.recovery_actions] == ["worker_respawn"]
        _identical(result, baseline)

    def test_a_named_resume_repairs_from_the_checkpoint_it_resumed(
        self, case, tmp_path, earlier_run
    ):
        _tpl, coll, pg = case
        baseline = run_application(CarryOver(), pg, coll)
        first = earlier_run[0]  # closes timestep 0; newer ones are in the directory too
        result = run_application(
            CarryOver(), pg, coll, config=self._killed(tmp_path), resume_from=first
        )
        assert [a.kind for a in result.recovery_actions] == ["worker_respawn"]
        _identical(result, baseline)


class TestRecoveryWithoutCheckpoints:
    def test_genesis_rollback_replays_from_start(self, case, tmp_path):
        """Faults + recovery but no checkpoint config: replay from genesis."""
        _tpl, coll, pg = case
        baseline = run_application(AccumulateSum(), pg, coll)
        cfg = EngineConfig(
            faults=FaultPlan.parse("kill@t2:p1", seed=1),
            recovery=RecoveryPolicy(backoff_s=0.0),
        )
        result = run_application(AccumulateSum(), pg, coll, config=cfg)
        _identical(result, baseline)
        assert result.metrics.retries == 1

    def test_injected_fault_types(self, case):
        plan = FaultPlan([])
        assert isinstance(InjectedFault("x", partition=1).partition, int)
        assert not plan
