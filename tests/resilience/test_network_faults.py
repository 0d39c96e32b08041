"""Network-fault grammar + the sequence-numbered wire protocol that cures it.

Each network fault is deterministic (one plan, one run), ``dup_frame`` produces zero duplicate deliveries into the engine
(the driver's dedup counters prove it), and results stay bit-identical
to a fault-free run — the protocol cures the wire without redoing work.
"""

import pytest

from repro.core import EngineConfig, run_application
from repro.partition import partition_graph
from repro.resilience import (
    AT_EOT,
    NETWORK_FAULT_KINDS,
    FaultPlan,
    RecoveryPolicy,
    parse_fault_specs,
)

from .conftest import AccumulateSum

pytestmark = pytest.mark.resilience


def _config(faults, *, executor="process", timeout=0.5):
    return EngineConfig(
        executor=executor,
        gather_timeout_s=timeout,
        faults=FaultPlan.parse(faults),
        recovery=RecoveryPolicy(backoff_s=0.0),
    )


def _identical(a, b):
    assert a.outputs == b.outputs
    assert a.merge_outputs == b.merge_outputs
    assert a.states == b.states


class TestGrammar:
    @pytest.mark.parametrize("kind", NETWORK_FAULT_KINDS)
    def test_parses_every_network_kind(self, kind):
        (spec,) = parse_fault_specs(f"{kind}@t2:s1:p0")
        assert spec.kind == kind
        assert (spec.timestep, spec.superstep, spec.partition) == (2, 1, 0)
        assert spec.incarnation == 0

    def test_full_token_set(self):
        (spec,) = parse_fault_specs("delay@t3:eot:p1:d0.25:i2")
        assert spec.kind == "delay"
        assert spec.superstep == AT_EOT
        assert spec.delay_s == 0.25
        assert spec.incarnation == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_specs("drop_packet@t1:p0")


class TestWireProtocol:
    """Process executor: real pipes, real misbehavior, idempotent cures."""

    @pytest.fixture(scope="class")
    def baseline(self, case):
        _tpl, coll, pg = case
        return run_application(
            AccumulateSum(), pg, coll,
            config=EngineConfig(executor="process"),
        )

    def test_dup_frame_zero_duplicate_deliveries(self, case, baseline):
        _tpl, coll, pg = case
        result = run_application(
            AccumulateSum(), pg, coll,
            config=_config("dup_frame@t1:p0"),
        )
        _identical(result, baseline)
        # The duplicate frame was dropped at the driver by sequence number:
        # exactly-once delivery into the engine, no retry, no failure.
        assert result.protocol_stats["duplicate_replies_dropped"] >= 1
        assert result.protocol_stats["resends"] == 0
        assert result.failure_log == []
        assert result.recovery_actions == []

    def test_reorder_skips_stale_frame(self, case, baseline):
        _tpl, coll, pg = case
        result = run_application(
            AccumulateSum(), pg, coll,
            config=_config("reorder@t2:p1"),
        )
        _identical(result, baseline)
        assert result.protocol_stats["duplicate_replies_dropped"] >= 1
        assert result.protocol_stats["resends"] == 0
        assert result.failure_log == []

    def test_drop_frame_cured_by_resend(self, case, baseline):
        _tpl, coll, pg = case
        result = run_application(
            AccumulateSum(), pg, coll,
            config=_config("drop_frame@t1:p0"),
        )
        _identical(result, baseline)
        # The gather timed out, the driver resent, the worker answered from
        # its reply cache — a cured incident, not a respawn.
        assert result.protocol_stats["resends"] >= 1
        assert result.protocol_stats["protocol_retries"] >= 1
        assert result.failure_log and result.failure_log[0].action == "retry"
        assert result.failure_log[0].error == "GatherTimeout"
        kinds = [a.kind for a in result.recovery_actions]
        assert "protocol_retry" in kinds and "worker_respawn" not in kinds

    def test_corrupt_frame_cured_by_resend(self, case, baseline):
        _tpl, coll, pg = case
        result = run_application(
            AccumulateSum(), pg, coll,
            config=_config("corrupt_frame@t2:p1"),
        )
        _identical(result, baseline)
        assert result.protocol_stats["resends"] >= 1
        assert result.failure_log and result.failure_log[0].action == "retry"
        assert result.failure_log[0].error == "CorruptReply"
        assert [a.kind for a in result.recovery_actions] == ["protocol_retry"]
        assert result.recovery_actions[0].partition == 1

    def test_slow_host_is_slowness_not_failure(self, case, baseline):
        """A ``delay`` inside the gather timeout: the host lags, nothing fails."""
        _tpl, coll, pg = case
        result = run_application(
            AccumulateSum(), pg, coll,
            config=_config("delay@t1:p0:d0.05"),
        )
        _identical(result, baseline)
        assert result.protocol_stats["resends"] == 0
        assert result.failure_log == []
        assert result.recovery_actions == []

    def test_same_seed_same_run(self, case):
        """The whole fault schedule is deterministic: one plan, one run."""
        _tpl, coll, pg = case
        runs = [
            run_application(
                AccumulateSum(), pg, coll,
                config=_config("dup_frame@t1:p0,drop_frame@t2:p1"),
            )
            for _ in range(2)
        ]
        _identical(runs[0], runs[1])
        assert (
            [r.error for r in runs[0].failure_log]
            == [r.error for r in runs[1].failure_log]
        )
        assert (
            [a.kind for a in runs[0].recovery_actions]
            == [a.kind for a in runs[1].recovery_actions]
        )


class TestExecutorPortability:
    """A wire kind is the same fault in-process: the agent misbehaves on its
    in-memory channel, and the run states the process run's repairs."""

    @pytest.mark.parametrize("executor", ["serial"])
    def test_plan_runs_clean_in_process(self, case, executor):
        _tpl, coll, pg = case
        baseline = run_application(
            AccumulateSum(), pg, coll,
            config=EngineConfig(executor=executor),
        )
        plan = "dup_frame@t1:p0,reorder@t1:p1,drop_frame@t2:p0,corrupt_frame@t2:p1"
        assert {s.kind for s in parse_fault_specs(plan)} == set(NETWORK_FAULT_KINDS)
        runs = {
            name: run_application(
                AccumulateSum(), pg, coll,
                config=_config(plan, executor=name),
            )
            for name in (executor, "process")
        }
        for result in runs.values():
            _identical(result, baseline)
            assert result.failure is None
        serial, process = runs[executor], runs["process"]
        assert [(r.error, r.partition) for r in serial.failure_log] == [
            ("GatherTimeout", 0), ("CorruptReply", 1)
        ]
        assert serial.failure_log == process.failure_log
        assert [(a.kind, a.partition) for a in serial.recovery_actions] == [
            (a.kind, a.partition) for a in process.recovery_actions
        ]
        for key in ("resends", "protocol_retries", "duplicate_replies_dropped"):
            assert serial.protocol_stats[key] == process.protocol_stats[key], key


class TestOneLadder:
    """The supervisor alone climbs a failed exchange's ladder: a resend, then
    a repair, each one attempt of the round's shared budget — but a resend
    that cures its exchange gives the attempt back."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_a_resend_that_times_out_escalates_to_a_respawn(self, case, executor):
        """A straggler past two gather windows: attempt 1 resends the command
        and times out again, attempt 2 respawns the agent."""
        _tpl, coll, pg = case
        baseline = run_application(AccumulateSum(), pg, coll)
        result = run_application(
            AccumulateSum(), pg, coll,
            config=_config("delay@t1:s0:p1:d1.0", executor=executor, timeout=0.3),
        )
        _identical(result, baseline)
        assert [(f.partition, f.attempt, f.error, f.action) for f in result.failure_log] == [
            (1, 1, "GatherTimeout", "retry"), (1, 2, "GatherTimeout", "retry")
        ]
        assert [(a.kind, a.attempt) for a in result.recovery_actions] == [("worker_respawn", 2)]
        stats = result.protocol_stats
        assert (stats["resends"], stats["protocol_retries"]) == (1, 0)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_cured_resends_spend_none_of_the_round_budget(self, case, executor):
        """Three partitions drop their reply in one round under the default
        policy (two attempts a round): each resend cures its exchange and
        gives its attempt back, so the round completes on resends alone."""
        tpl, coll, _pg = case
        pg = partition_graph(tpl, 4)
        baseline = run_application(AccumulateSum(), pg, coll)
        result = run_application(
            AccumulateSum(), pg, coll,
            config=EngineConfig(
                executor=executor,
                gather_timeout_s=0.3,
                faults=FaultPlan.parse("drop_frame@t2:p0,drop_frame@t2:p1,drop_frame@t2:p2"),
                recovery=RecoveryPolicy(),
            ),
        )
        _identical(result, baseline)
        assert result.failure is None
        assert [(f.partition, f.attempt, f.error, f.action) for f in result.failure_log] == [
            (0, 1, "GatherTimeout", "retry"),
            (1, 1, "GatherTimeout", "retry"),
            (2, 1, "GatherTimeout", "retry"),
        ]
        assert [(a.kind, a.partition) for a in result.recovery_actions] == [
            ("protocol_retry", 0), ("protocol_retry", 1), ("protocol_retry", 2)
        ]

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_a_respawned_agent_earns_its_own_resend(self, case, executor):
        """The re-issued command's reply is dropped by the fresh incarnation:
        the live agent is resent the command, not respawned again."""
        _tpl, coll, pg = case
        baseline = run_application(AccumulateSum(), pg, coll)
        result = run_application(
            AccumulateSum(), pg, coll,
            config=_config("kill@t3:p1,drop_frame@t3:p1:i1", executor=executor, timeout=0.3),
        )
        _identical(result, baseline)
        assert [(f.partition, f.attempt, f.error) for f in result.failure_log] == [
            (1, 1, "WorkerLost"), (1, 2, "GatherTimeout")
        ]
        assert [(a.kind, a.partition) for a in result.recovery_actions] == [
            ("worker_respawn", 1), ("protocol_retry", 1)
        ]
