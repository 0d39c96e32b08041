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
        kinds = [e.kind for e in result.health_events]
        assert "respawn" in kinds
        # Health findings became structured early warnings for the policy.
        assert [w.kind for w in result.early_warnings] == kinds
        respawn = next(w for w in result.early_warnings if w.kind == "respawn")
        assert respawn.threshold_s is None
        assert respawn.as_dict()["kind"] == "respawn"

    def test_stall_threshold_from_recovery_policy(self, case):
        _tpl, coll, pg = case
        result = run_application(
            AccumulateSum(), pg, coll,
            config=EngineConfig(
                live=_live_config(),
                recovery=RecoveryPolicy(backoff_s=0.0, stall_warning_s=7.5),
            ),
        )
        assert result.live.config.stall_after_s == 7.5

    def test_stall_warning_must_be_positive(self):
        with pytest.raises(ValueError, match="stall_warning_s"):
            RecoveryPolicy(stall_warning_s=0.0)


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
