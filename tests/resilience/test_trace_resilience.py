"""The one record stream through recovery: event coverage, recovery walls, round trip."""

import pytest

from repro.analysis import critical_path_report
from repro.core import EngineConfig, run_application
from repro.generators import road_latency_collection
from repro.resilience import CheckpointConfig, FaultPlan, RecoveryPolicy, RunFailureError
from repro.runtime import CollectionInstanceSource
from repro.runtime.gc_model import GCModel
from repro.runtime.metrics import MetricsCollector
from tests.conftest import assert_one_record_stream, folds_equal, refold

from .conftest import NUM_PARTITIONS, AccumulateSum, RingRelay

pytestmark = pytest.mark.resilience


def _step(t, s, *, phase="compute", p=0, compute_s=1.0, send_s=0.0):
    return {
        "kind": "step", "phase": phase, "timestep": t, "superstep": s,
        "partition": p, "compute_s": compute_s, "send_s": send_s,
    }


class TestReplayWalls:
    def test_walls_charge_checkpoint_and_recovery(self):
        events = [
            _step(0, 0, compute_s=1.0),
            {"kind": "checkpoint_write", "timestep": 1,
             "nbytes": 100, "seconds": 0.0, "cost_s": 0.25},
            _step(1, 0, compute_s=2.0),
            {"kind": "worker_respawn", "timestep": 2, "superstep": 0, "partition": 0,
             "attempt": 1, "seconds": 0.5, "incarnation": 1, "replayed_rounds": 3,
             "survivors": 0},
            _step(2, 0, compute_s=2.0),
        ]
        m = MetricsCollector.from_events(events, 1)
        assert m.timestep_wall(0) == pytest.approx(1.0)
        # The t1 checkpoint's modeled I/O cost is charged to t1; t2's wall
        # carries the measured repair of the worker that died in it.
        assert m.timestep_wall(1) == pytest.approx(2.0 + 0.25)
        assert m.timestep_wall(2) == pytest.approx(2.0 + 0.5)
        assert (m.checkpoints, m.checkpoint_bytes, m.retries) == (1, 100, 1)


class TestTracedRecovery:
    def _traced(self, case, tmp_path, faults, **cfg_kwargs):
        _tpl, coll, pg = case
        cfg = EngineConfig(
            tracing=True,
            checkpoint=CheckpointConfig(dir=tmp_path, every=1),
            faults=FaultPlan.parse(faults, seed=9),
            recovery=RecoveryPolicy(backoff_s=0.0),
            **cfg_kwargs,
        )
        return run_application(AccumulateSum(), pg, coll, config=cfg)

    def test_recovery_events_present(self, case, tmp_path):
        result = self._traced(case, tmp_path, "kill@t2:p1")
        kinds = [e["kind"] for e in result.trace.event_records()]
        # Recovery repairs in place: it shows up as a worker_respawn.
        for kind in ("checkpoint_write", "worker_lost", "retry", "worker_respawn"):
            assert kind in kinds, f"missing {kind} event"
        lost = next(e for e in result.trace.event_records() if e["kind"] == "worker_lost")
        assert lost["timestep"] == 2 and lost["attempt"] == 1

    def test_crosscheck_clean_under_rollback(self, case, tmp_path):
        result = self._traced(case, tmp_path, "kill@t2:p1")
        assert_one_record_stream(result)

    def test_crosscheck_clean_superstep_rollback(self, case, tmp_path):
        """A kill at a superstep, repaired by journal replay from the
        checkpoint that opened its timestep."""
        _tpl, coll, pg = case
        cfg = EngineConfig(
            tracing=True,
            checkpoint=CheckpointConfig(dir=tmp_path, every=1),
            faults=FaultPlan.parse("kill@t2:s2:p1", seed=9),
            recovery=RecoveryPolicy(backoff_s=0.0),
        )
        result = run_application(RingRelay(len(pg.subgraphs)), pg, coll, config=cfg)
        assert_one_record_stream(result)

    def test_recovery_time_visible_in_walls(self, case, tmp_path):
        result = self._traced(case, tmp_path, "kill@t2:p1")
        m = result.metrics
        assert m.total_recovery_s() > 0
        # The wall for the recovered timestep carries the measured restore —
        # in the run's collector and in the one folded from its event log.
        assert m.timestep_wall(2) >= m.total_recovery_s()
        assert refold(result).timestep_wall(2) == m.timestep_wall(2)

    def test_dropped_respawn_event_breaks_the_round_trip(self, case, tmp_path):
        result = self._traced(case, tmp_path, "kill@t2:p1")
        events = result.trace.event_records()
        events.remove(next(e for e in events if e["kind"] == "worker_respawn"))
        assert not folds_equal(refold(result, events), result.metrics)

    def test_resumed_run_reported_whole(self, case, tmp_path):
        """A resumed run's collector carries the timesteps run before the
        crash, so every fold over it covers the whole run."""
        tpl, _coll, pg = case
        coll = road_latency_collection(tpl, 6, seed=11)
        with pytest.raises(RunFailureError):
            run_application(
                AccumulateSum(), pg, coll,
                config=EngineConfig(
                    checkpoint=CheckpointConfig(dir=tmp_path, every=1),
                    faults=FaultPlan.parse("kill@t3:p1", seed=9),
                    recovery=RecoveryPolicy(max_retries=0, backoff_s=0.0),
                ),
            )
        resumed = run_application(
            AccumulateSum(), pg, coll,
            config=EngineConfig(
                tracing=True,
                checkpoint=CheckpointConfig(dir=tmp_path),
            ),
            resume_from=True,
        )
        m = resumed.metrics
        assert sorted(m.supersteps_per_timestep) == [0, 1, 2, 3, 4, 5]
        report = critical_path_report(m)
        assert [e["timestep"] for e in report["timesteps"]] == [0, 1, 2, 3, 4, 5]
        assert set(m.checkpoint_s) <= set(m.supersteps_per_timestep)
        # Its trace starts at the resume point: the log alone is the tail.
        assert sorted(refold(resumed).supersteps_per_timestep) == [3, 4, 5]


#: (fault plan, computation factory)
ROUND_TRIP_FAULTS = {
    "none": (None, lambda pg: AccumulateSum()),
    "kill": ("kill@t2:p1", lambda pg: AccumulateSum()),
    "kill-mid-timestep": ("kill@t2:s2:p1", lambda pg: RingRelay(len(pg.subgraphs))),
    "drop": ("drop_frame@t3:s0:p0", lambda pg: AccumulateSum()),
}


class TestRoundTrip:
    """Event-log completeness, with one arithmetic: the collector folded from
    the JSON event log ``==`` the one the run ended with — every executor,
    through kills, mid-timestep journal replays and cured wire faults, with
    tracing, the GC model and checkpoints all on."""

    @pytest.mark.parametrize("fault", list(ROUND_TRIP_FAULTS))
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_log_refolds_to_the_run_collector(self, case, tmp_path, executor, fault):
        _tpl, coll, pg = case
        spec, computation = ROUND_TRIP_FAULTS[fault]
        result = run_application(
            computation(pg), pg, coll,
            sources=[CollectionInstanceSource(coll) for _ in range(NUM_PARTITIONS)],
            config=EngineConfig(
                executor=executor,
                tracing=True,
                gc_model=GCModel(interval=2, pause_per_gib_s=0.5),
                checkpoint=CheckpointConfig(dir=tmp_path, every=1),
                faults=None if spec is None else FaultPlan.parse(spec, seed=9),
                recovery=RecoveryPolicy(backoff_s=0.0),
                gather_timeout_s=1.0,
            ),
        )
        assert result.failure is None
        assert result.metrics.checkpoints >= 4
        assert result.metrics.retries == (0 if spec is None else 1)
        assert_one_record_stream(result)
