"""The one BSP loop, driven through both of its phases.

A timestep's BSP and the Merge are the same superstep loop
(``TIBSPEngine._supersteps``): what is checked for one phase here is checked
for the other with the same computation.
"""

import pytest

from repro.core import EngineConfig, Pattern, TimeSeriesComputation, run_application
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from repro.runtime import CollectionInstanceSource
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
    sources = (
        None if executor == "serial" else [CollectionInstanceSource(coll) for _ in range(PARTITIONS)]
    )
    res = run_application(
        NoteToSelf(phase), pg, coll, sources=sources, config=EngineConfig(executor=executor)
    )
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
