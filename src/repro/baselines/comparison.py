"""Fig 5b comparison harness: Giraph-style SSSP vs GoFFish SSSP vs TDSP×50.

The paper's methodology (Section IV-C): no framework natively supports
time-series graphs, so it bounds a hypothetical Giraph TI-BSP port by its
single-instance SSSP time τ — running TDSP over n instances would cost
between τ and n·τ.  It then shows that Giraph's *single* unweighted SSSP is
already slower than GoFFish's TDSP over 50 instances.

Cost-model note: GoFFish's BSP barrier is an in-process/MPI-class sync
(defaults from :class:`~repro.runtime.cost.CostModel`), while Giraph v1.1
runs on Hadoop YARN whose per-superstep coordination is orders of magnitude
costlier — the paper's own numbers imply ~100 ms/superstep (≈90 s for a
~850-superstep CARN SSSP).  :data:`GIRAPH_BARRIER_S` uses a conservative
20 ms.  This platform asymmetry, together with the superstep blow-up of
vertex-centric traversal (one superstep per hop vs per meta-graph hop), is
exactly the effect Fig 5b demonstrates.

The Giraph bar is not a second runtime: it is :class:`VertexBFS` through the
:class:`~repro.baselines.vertex_adapter.VertexCentricAdapter` on the one
TI-BSP engine, over hash placement (Giraph's default ``v % k``, which cuts
the graph into nearly one subgraph per vertex) with the Giraph barrier —
the same code path as ``bench_ablation_vertex_adapter``'s vertex-centric
row, differing only in placement and barrier constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..algorithms.sssp import BFSComputation
from ..algorithms.tdsp import TDSPComputation
from ..core.engine import EngineConfig, run_application
from ..graph.collection import TimeSeriesGraphCollection
from ..partition import HashPartitioner, PartitionedGraph, partition_graph
from ..runtime.cost import CostModel
from ..runtime.host import InstanceSource
from .vertex_adapter import VertexCentricAdapter
from .vertex_algorithms import VertexBFS

__all__ = ["Fig5bRow", "fig5b_comparison", "GIRAPH_BARRIER_S"]

#: Conservative Hadoop-class per-superstep coordination cost (see module doc).
GIRAPH_BARRIER_S = 0.02


@dataclass(frozen=True)
class Fig5bRow:
    """One dataset's bars in Fig 5b (simulated seconds)."""

    graph: str
    giraph_sssp_1x: float
    goffish_sssp_1x: float
    goffish_tdsp_50x: float
    giraph_supersteps: int
    goffish_sssp_supersteps: int
    tdsp_timesteps: int

    def as_row(self) -> dict:
        return {
            "graph": self.graph,
            "Giraph SSSP 1x (s)": round(self.giraph_sssp_1x, 4),
            "GoFFish SSSP 1x (s)": round(self.goffish_sssp_1x, 4),
            "GoFFish TDSP 50x (s)": round(self.goffish_tdsp_50x, 4),
            "Giraph supersteps": self.giraph_supersteps,
            "GoFFish SSSP supersteps": self.goffish_sssp_supersteps,
            "TDSP timesteps": self.tdsp_timesteps,
        }


def fig5b_comparison(
    pg: PartitionedGraph,
    collection: TimeSeriesGraphCollection,
    *,
    source: int = 0,
    num_workers: int | None = None,
    cost_model: CostModel | None = None,
    giraph_cost_model: CostModel | None = None,
    sources: Sequence[InstanceSource] | None = None,
    halt_when_stalled: bool = True,
) -> Fig5bRow:
    """Run the three Fig 5b measurements on one dataset.

    Both SSSPs run *unweighted* on instance 0 (the paper's footnote: SSSP on
    an unweighted graph degenerates to BFS, which favors Giraph); TDSP runs
    over the whole collection with the ``latency`` attribute, re-rooting
    from the full frontier as in Algorithm 2.

    ``sources`` (e.g. GoFS partition views) feed the GoFFish runs; the
    Giraph run reads the in-memory collection over its own hash placement
    of ``num_workers`` (default: ``pg``'s partition count) — it pays only
    instance 0's in-memory load, which favors the baseline (the paper notes
    Giraph's loading would grow with the instance count).
    """
    cost_model = cost_model or CostModel()
    giraph_cost_model = giraph_cost_model or CostModel(barrier_s=GIRAPH_BARRIER_S)
    workers = pg.num_partitions if num_workers is None else num_workers

    hpg = partition_graph(pg.template, workers, HashPartitioner())
    giraph = run_application(
        VertexCentricAdapter(VertexBFS(source), hpg.vertex_subgraph),
        hpg,
        collection,
        timestep_range=(0, 1),
        config=EngineConfig(cost_model=giraph_cost_model),
    )

    config = EngineConfig(cost_model=cost_model)
    goffish_sssp = run_application(
        BFSComputation(source),
        pg,
        collection,
        timestep_range=(0, 1),
        config=config,
        sources=sources,
    )
    goffish_tdsp = run_application(
        TDSPComputation(source, halt_when_stalled=halt_when_stalled, root_pruning=False),
        pg,
        collection,
        config=config,
        sources=sources,
    )

    return Fig5bRow(
        graph=pg.template.name,
        giraph_sssp_1x=giraph.total_wall_s,
        goffish_sssp_1x=goffish_sssp.total_wall_s,
        goffish_tdsp_50x=goffish_tdsp.total_wall_s,
        giraph_supersteps=giraph.metrics.total_supersteps(),
        goffish_sssp_supersteps=goffish_sssp.metrics.total_supersteps(),
        tdsp_timesteps=goffish_tdsp.timesteps_executed,
    )
