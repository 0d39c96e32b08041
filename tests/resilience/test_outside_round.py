"""Worker deaths *outside* a protocol round, on the process executor.

The checkpoint snapshot and the closing state collection are driver→worker
exchanges too.  A worker SIGKILLed immediately before one
of them is repaired like a worker that dies in a round: one respawn, its
journal replayed, the exchange re-issued for that partition only.
"""

import multiprocessing as mp
import os
import signal

import pytest

from repro.core import EngineConfig, run_application
from repro.resilience import AT_EOT, CheckpointConfig, RecoveryPolicy, RunFailureError
from repro.runtime import Cluster
from repro.storage import GoFS

from .conftest import RingRelay

pytestmark = pytest.mark.resilience

VICTIM = 1


@pytest.fixture(scope="module")
def gofs_root(case, tmp_path_factory):
    _tpl, coll, pg = case
    root = tmp_path_factory.mktemp("gofs-outside-round")
    GoFS.write_collection(root, pg, coll, packing=2, binning=3)
    return root


def _run(case, gofs_root, **config):
    _tpl, coll, pg = case
    return run_application(
        RingRelay(len(pg.subgraphs)), pg, coll,
        sources=GoFS.partition_views(gofs_root),
        config=EngineConfig(executor="process", **config),
    )


@pytest.fixture(scope="module")
def baseline(case, gofs_root):
    return _run(case, gofs_root)


def _kill_before(monkeypatch, op, when=lambda t, s: True):
    """SIGKILL the victim's worker right before the first matching exchange.

    Returns the list the hook appends the cluster to when it fires.
    """
    real = Cluster.run_round
    fired = []

    def run_round(self, o, timestep, superstep, payloads):
        if o == op and not fired and when(timestep, superstep):
            fired.append(self)
            proc = self._channels[VICTIM].proc
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5)
            assert not proc.is_alive()
        return real(self, o, timestep, superstep, payloads)

    monkeypatch.setattr(Cluster, "run_round", run_round)
    return fired


#: (exchange, where it is killed, checkpoint cadence or None for genesis replay)
KILL_POINTS = {
    "timestep-snapshot": ("snapshot", lambda t, s: t == 2 and s == AT_EOT, {"every": 1}),
    "final-states": ("states", lambda t, s: True, {"every": 2}),
    "final-states-genesis": ("states", lambda t, s: True, None),
}


@pytest.mark.parametrize("point", sorted(KILL_POINTS))
def test_kill_outside_a_round_is_repaired(case, gofs_root, baseline, tmp_path, monkeypatch, point):
    op, when, cadence = KILL_POINTS[point]
    fired = _kill_before(monkeypatch, op, when)
    config = {"recovery": RecoveryPolicy(backoff_s=0.0)}
    if cadence is not None:
        config["checkpoint"] = CheckpointConfig(dir=tmp_path, **cadence)
    result = _run(case, gofs_root, **config)

    assert fired, f"no {op} exchange matched: the worker was never killed"
    assert result.failure is None
    assert result.outputs == baseline.outputs
    assert result.merge_outputs == baseline.merge_outputs
    assert result.states == baseline.states
    # Exactly one repair, of the killed partition; nobody else was touched.
    respawns = [a for a in result.recovery_actions if a.kind == "worker_respawn"]
    assert [(a.partition, a.incarnation) for a in respawns] == [(VICTIM, 1)]
    assert fired[0].incarnations == [0, 1]
    assert result.metrics.retries == 1
    if cadence is None:
        # Genesis replay: the whole run so far came back from the journal.
        assert respawns[0].replayed_rounds > 0
    assert mp.active_children() == []


def test_exhausted_at_the_snapshot_carries_the_partial_result(
    case, gofs_root, baseline, tmp_path, monkeypatch
):
    fired = _kill_before(monkeypatch, "snapshot", lambda t, s: t == 2 and s == AT_EOT)
    with pytest.raises(RunFailureError) as excinfo:
        _run(
            case, gofs_root,
            checkpoint=CheckpointConfig(dir=tmp_path, every=1),
            recovery=RecoveryPolicy(max_retries=0, backoff_s=0.0),
        )
    assert fired
    failure, partial = excinfo.value.failure, excinfo.value.partial
    assert failure.timestep == 2 and "WorkerLost" in failure.reason
    assert [r.action for r in partial.failure_log] == ["raise"]
    # Everything barriered before the snapshot survives in the partial result.
    assert partial.timesteps_executed == 3
    assert partial.outputs == [o for o in baseline.outputs if o[0] <= 2]
    assert partial.recovery_actions == []
    assert mp.active_children() == []
