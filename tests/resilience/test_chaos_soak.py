"""Chaos soak: seeded multi-fault schedules on every executor.

ISSUE 8 satellite: a schedule mixing host death (``kill``), wire loss
(``drop_frame``), and stragglers (``delay``) must leave every executor
bit-identical to its own fault-free baseline, with a valid streamed event
log — the whole resilience stack exercised at once, deterministically.  The
socket executor runs on the session's ``tibsp worker`` agents.
"""

import json

import pytest

from repro.core import EngineConfig, run_application
from repro.observability import TraceConfig
from repro.resilience import CheckpointConfig, FaultPlan, RecoveryPolicy

from ..conftest import hosts_for
from .conftest import NUM_PARTITIONS, AccumulateSum, RingRelay

pytestmark = pytest.mark.resilience

#: Host death at t1, a vanished reply frame at t2, a straggler at t3 —
#: three failure classes in one run, each repaired alike on every executor.
CHAOS_PLAN = "kill@t1:s0:p1,drop_frame@t2:p0,delay@t3:p1:d0.02"

EXECUTORS = ["serial", "process", "socket"]


def _identical(a, b):
    assert a.outputs == b.outputs
    assert a.merge_outputs == b.merge_outputs
    assert a.states == b.states


def _chaos_config(executor, hosts, ckpt_dir, stream_dir):
    return EngineConfig(
        executor=executor,
        hosts=hosts,
        gather_timeout_s=0.5,
        tracing=TraceConfig(stream_dir=str(stream_dir)),
        checkpoint=CheckpointConfig(dir=ckpt_dir, every=1),
        faults=FaultPlan.parse(CHAOS_PLAN),
        recovery=RecoveryPolicy(backoff_s=0.0),
    )


@pytest.mark.parametrize("executor", EXECUTORS)
class TestChaosSoak:
    def test_bit_identical_with_valid_event_stream(
        self, case, tmp_path, external_workers, executor
    ):
        _tpl, coll, pg = case
        hosts = hosts_for(executor, external_workers, NUM_PARTITIONS)
        comp = RingRelay(len(pg.subgraphs))
        baseline = run_application(
            comp, pg, coll,
            config=EngineConfig(executor=executor, hosts=hosts),
        )
        stream = tmp_path / "stream"
        result = run_application(
            comp, pg, coll,
            config=_chaos_config(executor, hosts, tmp_path / "ck", stream),
        )
        _identical(result, baseline)
        assert result.failure is None
        assert result.degraded_partitions == []

        # The kill produced exactly one surgical respawn; the wire faults
        # never escalated to one.
        respawns = [a for a in result.recovery_actions if a.kind == "worker_respawn"]
        assert len(respawns) == 1 and respawns[0].partition == 1
        assert result.protocol_stats["resends"] >= 1  # the dropped frame
        assert any(a.kind == "protocol_retry" for a in result.recovery_actions)

        # The streamed log survived the chaos as valid, schema-stamped JSONL.
        lines = (stream / "events.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines if line.strip()]
        assert events == result.trace.event_records()
        assert all(e.get("schema") == 1 for e in events)
        kinds = {e["kind"] for e in events}
        assert "step" in kinds and "worker_respawn" in kinds

    def test_repeated_runs_identical(self, case, tmp_path, external_workers, executor):
        """Soak determinism: the same seeded schedule, run twice, is
        indistinguishable — outputs, states, and recovery provenance."""
        _tpl, coll, pg = case
        hosts = hosts_for(executor, external_workers, NUM_PARTITIONS)
        runs = [
            run_application(
                AccumulateSum(), pg, coll,
                config=_chaos_config(executor, hosts, tmp_path / f"ck{i}", tmp_path / f"s{i}"),
            )
            for i in range(2)
        ]
        _identical(runs[0], runs[1])
        assert (
            [(a.kind, a.partition, a.timestep) for a in runs[0].recovery_actions]
            == [(a.kind, a.partition, a.timestep) for a in runs[1].recovery_actions]
        )
        assert (
            [(r.error, r.action) for r in runs[0].failure_log]
            == [(r.error, r.action) for r in runs[1].failure_log]
        )
