"""Trace replay through recovery: event coverage, recovery walls, crosscheck."""

import pytest

from repro.analysis import crosscheck_trace, replay_timestep_walls
from repro.core import EngineConfig, run_application
from repro.resilience import CheckpointConfig, FaultPlan, RecoveryPolicy

from .conftest import AccumulateSum, RingRelay

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
            {"kind": "checkpoint_write", "timestep": 1, "superstep": None,
             "nbytes": 100, "seconds": 0.0, "cost_s": 0.25},
            _step(1, 0, compute_s=2.0),
            {"kind": "worker_respawn", "timestep": 2, "superstep": 0, "partition": 0,
             "attempt": 1, "seconds": 0.5, "incarnation": 1, "replayed_rounds": 3,
             "survivors": 0},
            _step(2, 0, compute_s=2.0),
        ]
        walls = replay_timestep_walls(events, 1)
        assert walls[0] == pytest.approx(1.0)
        # The t1 checkpoint's modeled I/O cost is charged to t1; t2's wall
        # carries the measured repair of the worker that died in it.
        assert walls[1] == pytest.approx(2.0 + 0.25)
        assert walls[2] == pytest.approx(2.0 + 0.5)


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
        assert crosscheck_trace(result) == []

    def test_crosscheck_clean_superstep_rollback(self, case, tmp_path):
        _tpl, coll, pg = case
        cfg = EngineConfig(
            tracing=True,
            checkpoint=CheckpointConfig(dir=tmp_path, every=1, superstep_every=1),
            faults=FaultPlan.parse("kill@t2:s2:p1", seed=9),
            recovery=RecoveryPolicy(backoff_s=0.0),
        )
        result = run_application(RingRelay(len(pg.subgraphs)), pg, coll, config=cfg)
        assert crosscheck_trace(result) == []

    def test_recovery_time_visible_in_walls(self, case, tmp_path):
        result = self._traced(case, tmp_path, "kill@t2:p1")
        m = result.metrics
        walls = replay_timestep_walls(
            result.trace.event_records(), m.num_partitions, barrier_s=m.barrier_s
        )
        assert m.total_recovery_s() > 0
        # The wall for the recovered timestep carries the measured restore.
        assert walls[2] >= m.total_recovery_s()

    def test_crosscheck_rejects_resumed_run(self, case, tmp_path):
        _tpl, coll, pg = case
        with pytest.raises(Exception):
            run_application(
                AccumulateSum(), pg, coll,
                config=EngineConfig(
                    checkpoint=CheckpointConfig(dir=tmp_path, every=1),
                    faults=FaultPlan.parse("kill@t2:p1", seed=9),
                    recovery=RecoveryPolicy(max_retries=0, backoff_s=0.0),
                ),
            )
        resumed = run_application(
            AccumulateSum(), pg, coll,
            config=EngineConfig(
                tracing=True, checkpoint=CheckpointConfig(dir=tmp_path)
            ),
            resume_from=True,
        )
        with pytest.raises(ValueError, match="resumed run"):
            crosscheck_trace(resumed)
