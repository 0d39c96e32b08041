"""The one BSP loop, driven through both of its phases.

A timestep's BSP and the Merge are the same superstep loop
(``TIBSPEngine._supersteps``): what is checked for one phase here is checked
for the other with the same computation.
"""

import pytest

from repro.core import EngineConfig, Pattern, TimeSeriesComputation, run_application
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from tests.conftest import make_grid_template

PHASES = ["compute", "merge"]
PARTITIONS = 2


class TwoPhase(TimeSeriesComputation):
    """Runs ``body`` in the phase under test; the other phase just halts."""

    pattern = Pattern.EVENTUALLY_DEPENDENT

    def __init__(self, phase: str) -> None:
        self.phase = phase

    def body(self, ctx) -> None:
        raise NotImplementedError

    def _hook(self, phase, ctx):
        if self.phase == phase:
            self.body(ctx)
        else:
            ctx.vote_to_halt()

    def compute(self, ctx):
        self._hook("compute", ctx)

    def merge(self, ctx):
        self._hook("merge", ctx)


class Forever(TwoPhase):
    def body(self, ctx):
        ctx.send_to_subgraph(ctx.subgraph.subgraph_id, "loop")


class NoteToSelf(TwoPhase):
    """Superstep 0: a host-local send (to itself) and a halt vote.  Superstep 1
    exists only if quiescence waited for that undelivered local message."""

    def body(self, ctx):
        if ctx.superstep == 0:
            ctx.send_to_subgraph(ctx.subgraph.subgraph_id, "note")
        else:
            ctx.output((ctx.superstep, [m.payload for m in ctx.messages]))
        ctx.vote_to_halt()


@pytest.fixture(scope="module")
def case():
    tpl = make_grid_template(3, 4)
    return build_collection(tpl, 2), partition_graph(tpl, PARTITIONS, HashPartitioner(seed=1))


@pytest.mark.parametrize("phase", PHASES)
def test_max_supersteps_names_the_phase(case, phase):
    coll, pg = case
    where = "timestep 0" if phase == "compute" else "merge phase"
    with pytest.raises(RuntimeError, match=f"{where} exceeded max_supersteps=7"):
        run_application(Forever(phase), pg, coll, config=EngineConfig(max_supersteps=7))


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("phase", PHASES)
def test_quiescence_waits_for_host_local_deliveries(case, phase, executor):
    coll, pg = case
    res = run_application(NoteToSelf(phase), pg, coll, config=EngineConfig(executor=executor))
    sgids = sorted(sg.subgraph_id for sg in pg.subgraphs)
    m = res.metrics
    # ``supersteps_per_timestep`` counts the end-of-timestep round as one more.
    assert m.total_frames() == 0 and m.total_remote_messages() == 0  # nothing the driver routed
    if phase == "compute":
        assert sorted((t, sg) for t, sg, _ in res.outputs) == [(t, sg) for t in (0, 1) for sg in sgids]
        assert all(rec == (1, ["note"]) for _t, _sg, rec in res.outputs)
        assert dict(m.supersteps_per_timestep) == {0: 3, 1: 3} and m.merge_supersteps == 1
    else:
        assert sorted(res.merge_outputs) == [(sg, (1, ["note"])) for sg in sgids]
        assert dict(m.supersteps_per_timestep) == {0: 2, 1: 2} and m.merge_supersteps == 2


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_timestep_on_the_wire_is_supersteps_eot(tmp_path, monkeypatch, executor):
    """The wire sentence: a fault-free run issues ``superstep* → eot`` per
    timestep, opened by superstep 0, and one closing ``states`` — no other
    op, over GoFS views too.  A view reads a pack when its computation
    first reads from it: here, at each pack's first timestep (Fig 6's
    spike)."""
    from repro.algorithms import TDSPComputation
    from repro.generators import road_latency_collection
    from repro.runtime import Cluster
    from repro.storage import GoFS

    tpl = make_grid_template(5, 6)
    # Latencies near δ: the wave needs all 8 timesteps, i.e. 4 packs of 2.
    coll = road_latency_collection(tpl, 8, seed=2, delta=5.0, low=2.0, high=6.0)
    pg = partition_graph(tpl, PARTITIONS, HashPartitioner(seed=1))
    GoFS.write_collection(tmp_path, pg, coll, packing=2)
    real, issued = Cluster.run_round, []

    def run_round(self, op, timestep, superstep, payloads):
        issued.append((op, timestep, superstep))
        return real(self, op, timestep, superstep, payloads)

    monkeypatch.setattr(Cluster, "run_round", run_round)
    res = run_application(
        TDSPComputation(0), pg, coll,
        sources=GoFS.partition_views(tmp_path),
        config=EngineConfig(executor=executor, tracing=True),
    )

    assert {op for op, _t, _s in issued} == {"superstep", "eot", "states"}
    assert res.timesteps_executed == 8
    opened = [t for o, t, s in issued if o == "superstep" and s == 0]
    assert opened == [t for o, t, _s in issued if o == "eot"] == list(range(8))
    # Each timestep's first op is its superstep 0.
    firsts = [issued[i] for i in range(len(issued)) if i == 0 or issued[i - 1][0] == "eot"]
    assert firsts[:8] == [("superstep", t, 0) for t in range(8)]
    assert [o for o, _t, _s in issued].count("states") == 1
    # Per view: every pack read once, at its boundary, on the wall.
    assert res.trace.counters["gofs.packs_loaded"] == PARTITIONS * 4
    loads = [e for e in res.trace.event_records() if e["kind"] == "slice_load"]
    assert sorted((e["partition"], e["timestep"]) for e in loads) == [
        (p, t) for p in range(PARTITIONS) for t in (0, 2, 4, 6)
    ]
    assert res.metrics.total_load_s() > 0


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_superstep_0_opens_a_timestep_without_a_command_of_its_own(executor):
    """Each partition is sent one command per superstep, one per end of
    timestep and one closing ``states``: 4 × (37 + 1) = 152 here, where a
    separate opening round cost one more per partition per timestep (192,
    4 × 10 more).  The labels are the ones that protocol computed (pinned)."""
    import hashlib

    from repro.algorithms import TDSPComputation, tdsp_labels_from_result
    from repro.generators import paper_datasets
    from repro.partition import MetisLikePartitioner

    data = paper_datasets(2000, 10)["CARN"]
    tpl, coll = data["template"], data["road"]
    pg = partition_graph(tpl, 4, MetisLikePartitioner(seed=0))
    res = run_application(TDSPComputation(0), pg, coll, config=EngineConfig(executor=executor))
    supersteps = res.metrics.summary()["supersteps"]  # an end of timestep counts as one
    assert (res.timesteps_executed, supersteps) == (10, 37)
    assert res.protocol_stats["commands_sent"] == 4 * (supersteps + 1) == 192 - 4 * 10
    labels = tdsp_labels_from_result(res, tpl.num_vertices).tobytes()
    assert hashlib.sha256(labels).hexdigest()[:16] == "99f279dee4a56aff"
