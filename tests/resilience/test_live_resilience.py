"""Live telemetry + streaming event log under faults, prefetch, and rollback."""

import json

import pytest

from repro.core import EngineConfig, run_application
from repro.observability import LiveConfig, TraceConfig
from repro.resilience import (
    CheckpointConfig,
    FaultPlan,
    RecoveryPolicy,
    RunFailureError,
)
from repro.runtime import CollectionInstanceSource
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


def _live_config(**overrides):
    defaults = dict(interval_s=0.0, heartbeat_s=None)
    defaults.update(overrides)
    return LiveConfig(**defaults)


class TestCrosscheckWithPrefetchRecovery:
    """The event log stays complete when prefetch, faults and repair mix.

    A journal replay that leaked a second instance_load — or a record that
    forgot the hidden (prefetch-overlapped) portion — fails the blocked /
    hidden load totals of the round trip, even when the error cancels out
    of the per-timestep wall arithmetic.
    """

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_trace_replays_clean(self, case, gofs_root, tmp_path, prefetch):
        _tpl, coll, pg = case
        sources = GoFS.partition_views(gofs_root, prefetch=prefetch, cache_packs=2)
        result = run_application(
            AccumulateSum(), pg, coll, sources=sources,
            config=EngineConfig(
                tracing=True,
                checkpoint=CheckpointConfig(dir=tmp_path, every=1),
                faults=FaultPlan.parse("kill@t2:p1", seed=3),
                recovery=RecoveryPolicy(backoff_s=0.0),
            ),
        )
        assert result.metrics.retries >= 1
        if prefetch:
            assert result.metrics.total_load_hidden_s() >= 0.0
        assert_one_record_stream(result)

    def test_hidden_load_mismatch_detected(self, case, gofs_root, tmp_path):
        """Corrupting one hidden_s value trips the round trip's load totals."""
        _tpl, coll, pg = case
        sources = GoFS.partition_views(gofs_root, prefetch=True, cache_packs=2)
        result = run_application(
            AccumulateSum(), pg, coll, sources=sources,
            config=EngineConfig(tracing=True),
        )
        # Corrupt the raw record (event_records() normalizes fresh copies).
        loads = [e for e in result.trace.events if e.get("kind") == "instance_load"]
        assert loads, "expected instance_load events"
        loads[0]["hidden_s"] = loads[0].get("hidden_s", 0.0) + 1.0
        folded = refold(result)
        assert folded.total_load_hidden_s() != result.metrics.total_load_hidden_s()
        assert folded.total_load_s() == result.metrics.total_load_s()
        assert not folds_equal(folded, result.metrics)


class TestLiveThroughRecovery:
    def test_summary_exact_after_rollback(self, case, tmp_path):
        _tpl, coll, pg = case
        result = run_application(
            AccumulateSum(), pg, coll,
            config=EngineConfig(
                live=_live_config(),
                checkpoint=CheckpointConfig(dir=tmp_path, every=1),
                faults=FaultPlan.parse("kill@t2:p1", seed=3),
                recovery=RecoveryPolicy(backoff_s=0.0),
            ),
        )
        assert result.metrics.retries >= 1
        # The registry reads the run's own collector: the repair is in both
        # because there is only one.
        assert result.live.metrics is result.metrics
        assert result.live.summary() == result.metrics.summary()
        # The repair is the supervisor's record, in the snapshot's totals;
        # health events are what the live plane itself found.
        assert result.live.last_snapshot()["totals"]["retries"] == result.metrics.retries
        assert {e.kind for e in result.health_events} <= {"straggler", "stalled"}


    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_one_repair_is_stated_once(self, case, tmp_path, executor):
        """The ledger: one kill under live + tracing is one ``worker_respawn``
        line, and ``recovery_actions`` holds the record that line carries."""
        _tpl, coll, pg = case
        result = run_application(
            AccumulateSum(), pg, coll,
            sources=[CollectionInstanceSource(coll) for _ in range(pg.num_partitions)],
            config=EngineConfig(
                executor=executor,
                tracing=True,
                live=_live_config(),
                checkpoint=CheckpointConfig(dir=tmp_path, every=1),
                faults=FaultPlan.parse("kill@t2:p1", seed=3),
                recovery=RecoveryPolicy(backoff_s=0.0),
            ),
        )
        log = result.trace.event_records()
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
        # Health events are findings the live plane made; a repair is not one.
        assert {e.kind for e in result.health_events} <= {"straggler", "stalled"}
        assert not hasattr(result, "early_warnings")

    def test_a_quarantined_partition_stops_heartbeating(self, case, tmp_path):
        """Its synthesized replies are not heartbeats: the dashboard shows it
        silent, and — silent by decision — it is never the stall suspect."""
        _tpl, coll, pg = case
        result = run_application(
            AccumulateSum(), pg, coll,
            config=EngineConfig(
                live=_live_config(stall_after_s=0.0),
                checkpoint=CheckpointConfig(dir=tmp_path, every=1),
                faults=FaultPlan.parse("kill@t1:p1,kill@t1:p1:i1,kill@t1:p1:i2", seed=3),
                recovery=RecoveryPolicy(backoff_s=0.0, max_retries=2, quarantine=True),
            ),
        )
        assert result.degraded_partitions == [1] and result.timesteps_executed == 4
        after = [s["partitions"] for s in result.live.snapshots if s["timestep"] > 1]
        assert len(after) > 2
        beats = [[row["heartbeats"] for row in rows] for rows in after]
        assert len({b[1] for b in beats}) == 1, "the dead partition kept heartbeating"
        assert beats[-1][0] > beats[0][0]
        ages = [rows[1]["last_seen_age_s"] for rows in after]
        assert ages == sorted(ages) and ages[-1] > ages[0]
        assert ages[-1] > after[-1][0]["last_seen_age_s"]
        # The one silent longest is the quarantined one; a stall names a live one.
        result.live.round_begin("compute", 4, 0)
        assert result.live.check_stalled().partition == 0

    def test_the_stall_threshold_has_one_home(self):
        """``LiveConfig.stall_after_s`` is the threshold; the policy has no copy."""
        with pytest.raises(TypeError):
            RecoveryPolicy(stall_warning_s=7.5)


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
                    faults=FaultPlan.parse("kill@t2:p0", seed=3),
                    recovery=RecoveryPolicy(backoff_s=0.0, max_retries=0),
                ),
            )
        events = self._read_events(out / "events.jsonl")
        assert events, "abnormal exit left no events behind"
        # Every line is complete JSON with the schema envelope, and the work
        # before the crash (t0/t1 steps + the fault evidence) is present.
        assert all(e.get("schema") == 1 for e in events)
        kinds = {e["kind"] for e in events}
        assert "step" in kinds and "worker_lost" in kinds
        assert {e["timestep"] for e in events if e["kind"] == "step"} >= {0, 1}
