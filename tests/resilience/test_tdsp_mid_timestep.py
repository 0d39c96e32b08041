"""A worker lost in the middle of a TDSP timestep, on the process executor.

TDSP keeps what a timestep has touched so far — the finite entries of its
run-long ``label`` array, the ``touched`` index arrays ``end_of_timestep``
finalizes from, the lazily taken weight columns — in subgraph state.  None
of that is in a checkpoint: the last one closed the previous timestep.  The
respawned worker restores that close, replays the timestep's journaled
rounds (``begin``, superstep 0, superstep 1) to rebuild its mid-wave state,
and finishes the timestep to the same bytes.
"""

import multiprocessing as mp

import pytest

from repro.algorithms import TDSPComputation, tdsp_labels_from_result
from repro.algorithms.reference import time_expanded_dijkstra
from repro.core import EngineConfig, run_application
from repro.resilience import CheckpointConfig, RecoveryPolicy
from tests.core.test_executor_equivalence import _canonical

from .test_outside_round import VICTIM, _kill_before

pytestmark = pytest.mark.resilience

KILL_AT = (1, 2)  #: (timestep, superstep): the victim's subgraph is mid-wave there


def test_sigkill_between_supersteps_of_a_timestep(case, sources, tmp_path, monkeypatch):
    tpl, coll, pg = case
    baseline = run_application(
        TDSPComputation(0), pg, coll, sources=sources, config=EngineConfig(executor="process")
    )
    assert baseline.metrics.supersteps_per_timestep[KILL_AT[0]] > KILL_AT[1] + 1
    fired = _kill_before(monkeypatch, "superstep", lambda t, s: (t, s) == KILL_AT)
    result = run_application(
        TDSPComputation(0), pg, coll, sources=sources,
        config=EngineConfig(
            executor="process",
            checkpoint=CheckpointConfig(dir=tmp_path, every=1),
            recovery=RecoveryPolicy(backoff_s=0.0),
        ),
    )
    assert fired and result.failure is None
    respawns = [a for a in result.recovery_actions if a.kind == "worker_respawn"]
    assert [(a.partition, a.incarnation) for a in respawns] == [(VICTIM, 1)]
    # begin, superstep 0 and superstep 1 of timestep 1, since the t=0 close.
    assert respawns[0].replayed_rounds == KILL_AT[1] + 1
    assert _canonical(result.outputs) == _canonical(baseline.outputs)
    assert _canonical(result.states) == _canonical(baseline.states)
    got = tdsp_labels_from_result(result, tpl.num_vertices)
    assert got.tobytes() == time_expanded_dijkstra(coll, 0).tobytes()
    assert mp.active_children() == []
