"""Where a run's partitions run, decided in one place (``Cluster._open``):
every partition in the driver on serial; partition 0 in the driver and one
forked agent for each other partition on process; with ``hosts``, every
partition on the named agents.  The driver's partition keeps every contract
a forked one has: an application error is a ``WorkerError`` with the
traceback, and a ``kill`` is one respawn."""

import multiprocessing as mp
import os
import threading

import pytest

from repro.core import EngineConfig, Pattern, TimeSeriesComputation, run_application
from repro.generators import road_latency_collection, road_network
from repro.partition import partition_graph
from repro.resilience import CheckpointConfig, FaultPlan, RecoveryPolicy
from repro.runtime import Cluster, WorkerError
from repro.runtime import process_cluster
from tests.core.test_executor_equivalence import _canonical

K = 3


class EmitPlace(TimeSeriesComputation):
    """Each subgraph outputs the ``(partition, pid, thread)`` it ran on."""

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def compute(self, ctx):
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx):
        ctx.output((ctx.subgraph.partition_id, os.getpid(), threading.get_ident()))


class BoomOn(TimeSeriesComputation):
    """Raises at timestep 1 on one partition only."""

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def __init__(self, partition):
        self.partition = partition

    def compute(self, ctx):
        if ctx.timestep == 1 and ctx.subgraph.partition_id == self.partition:
            raise ValueError(f"boom on partition {self.partition}")
        ctx.state["acc"] = ctx.state.get("acc", 0) + ctx.subgraph.num_vertices
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx):
        ctx.output(ctx.state["acc"])


@pytest.fixture(scope="module")
def case():
    tpl = road_network(500, seed=8)
    coll = road_latency_collection(tpl, 4, seed=8)
    pg = partition_graph(tpl, K)
    return tpl, coll, pg


def _run(case, computation, **config):
    _tpl, coll, pg = case
    return run_application(computation, pg, coll, config=EngineConfig(**config))


def _places(result):
    """``{partition: {(pid, thread), ...}}`` over every output of the run."""
    places: dict[int, set] = {}
    for _t, _sg, (partition, pid, thread) in result.outputs:
        places.setdefault(partition, set()).add((pid, thread))
    return places


class _CountingFork:
    """Fork-context stand-in that counts the agents a run starts."""

    def __init__(self, real):
        self._real = real
        self.started = 0

    def Process(self, *args, **kwargs):
        self.started += 1
        return self._real.Process(*args, **kwargs)


#: Each placement's channel types, in partition order.
CHANNELS = {
    "serial": ["InProcessChannel"] * K,
    "process": ["InProcessChannel"] + ["AgentChannel"] * (K - 1),
    "hosts": ["AgentChannel"] * K,
}


class TestPlacement:
    @pytest.mark.parametrize("placement", sorted(CHANNELS))
    def test_one_channel_per_partition(
        self, case, external_workers, monkeypatch, placement
    ):
        """Serial: k in-driver channels; process: partition 0 in the driver
        and k−1 ``AgentChannel``s with live processes; ``hosts``: k
        ``AgentChannel``s with no process — and every output was computed
        where its partition's channel says."""
        real = Cluster.run_round
        seen = []

        def run_round(self, op, timestep, superstep, payloads):
            seen.append([(type(c).__name__, getattr(c, "proc", None)) for c in self._channels])
            assert all(proc.is_alive() for _, proc in seen[-1] if proc is not None)
            return real(self, op, timestep, superstep, payloads)

        monkeypatch.setattr(Cluster, "run_round", run_round)
        if placement == "hosts":
            config = dict(executor="socket", hosts=external_workers[:K])
        else:
            config = dict(executor=placement)
        places = _places(_run(case, EmitPlace(), **config))
        assert all(channels == seen[0] for channels in seen)  # no channel replaced
        assert [name for name, _ in seen[0]] == CHANNELS[placement]
        driver = (os.getpid(), threading.get_ident())
        for p, (name, proc) in enumerate(seen[0]):
            assert (proc is not None) == (placement == "process" and p > 0)
            if name == "InProcessChannel":
                assert places[p] == {driver}
            elif proc is not None:
                assert {pid for pid, _ in places[p]} == {proc.pid} != {os.getpid()}
            else:  # a hosts agent: a thread of this process in the tests
                assert driver not in places[p]
        assert mp.active_children() == []


class TestDriverPartitionContracts:
    @pytest.mark.parametrize("partition", [0, 1])
    def test_an_application_error_is_a_worker_error_with_its_traceback(self, case, partition):
        with pytest.raises(WorkerError, match=f"(?s)Traceback.*boom on partition {partition}"):
            _run(case, BoomOn(partition), executor="process")
        assert mp.active_children() == []

    def test_a_kill_on_partition_0_rebuilds_it_in_the_driver(self, case, tmp_path, monkeypatch):
        baseline = _run(case, BoomOn(-1), executor="process")
        fork = _CountingFork(process_cluster._FORK_CONTEXT)
        monkeypatch.setattr(process_cluster, "_FORK_CONTEXT", fork)
        result = _run(
            case, BoomOn(-1), executor="process",
            gather_timeout_s=0.5,
            checkpoint=CheckpointConfig(dir=tmp_path, every=1),
            faults=FaultPlan.parse("kill@t1:s0:p0"),
            recovery=RecoveryPolicy(backoff_s=0.0),
        )
        respawns = [a for a in result.recovery_actions if a.kind == "worker_respawn"]
        assert [(a.partition, a.incarnation) for a in respawns] == [(0, 1)]
        assert fork.started == K - 1  # the respawn forked nothing
        for field in ("outputs", "merge_outputs", "states"):
            assert _canonical(getattr(result, field)) == _canonical(getattr(baseline, field))
        assert mp.active_children() == []
