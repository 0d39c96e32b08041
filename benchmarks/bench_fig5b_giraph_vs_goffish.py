"""Fig 5b (Section IV-C): Giraph SSSP 1× vs GoFFish SSSP 1× vs GoFFish TDSP 50×.

Paper's shape (6 VMs / workers):

* Giraph's *single-instance* unweighted SSSP is slower than GoFFish running
  TDSP over the full collection, for both CARN and WIKI — so even a
  hypothetical TI-BSP port of Giraph (lower-bounded by one SSSP) loses;
* GoFFish's own single-instance SSSP is ~13× faster than its multi-instance
  TDSP on CARN (per-timestep/superstep overheads across many graphs).

Structural causes reproduced: vertex-centric SSSP needs one superstep per
hop (~graph diameter) with Hadoop-class per-superstep coordination, while
subgraph-centric needs one superstep per meta-graph hop with MPI-class
barriers.  Both run on the one TI-BSP engine: Giraph is the Pregel vertex
program through ``VertexCentricAdapter`` over hash placement.  GoFFish
reads from GoFS partition views; Giraph pays only instance 0's in-memory
load (conservative in its favor).
"""

import pytest

from repro.analysis import render_table
from repro.baselines import fig5b_comparison
from repro.storage import GoFS

from conftest import SCALE, emit

ROWS = []


@pytest.mark.parametrize("graph", ["CARN", "WIKI"])
def test_fig5b_comparison(benchmark, graph, datasets, partitioned, tmp_path_factory):
    pg = partitioned(graph, 6)
    collection = datasets[graph]["road"]
    store = str(tmp_path_factory.mktemp("fig5b") / graph)
    GoFS.write_collection(store, pg, collection)

    def run():
        return fig5b_comparison(pg, collection, sources=GoFS.partition_views(store))

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    ROWS.append(row)
    benchmark.extra_info.update(row.as_row())

    # The paper's headline orderings.
    assert row.giraph_sssp_1x > row.goffish_sssp_1x, "Giraph should lose the 1x race"
    assert row.giraph_sssp_1x > row.goffish_tdsp_50x, (
        "Giraph 1x SSSP should be slower than GoFFish TDSP over all instances"
    )
    if graph == "CARN":
        assert row.goffish_tdsp_50x > row.goffish_sssp_1x, (
            "processing the full series costs more than one instance"
        )
    else:
        # WIKI TDSP converges after ~4 timesteps over a half-reachable
        # directed graph, so its cost is only marginally above one SSSP —
        # allow measurement noise around that thin margin.
        assert row.goffish_tdsp_50x > 0.75 * row.goffish_sssp_1x
    # Superstep blow-up: vertex-centric ~diameter vs subgraph meta-diameter.
    # Dramatic on the large-diameter road network; small-world WIKI's tiny
    # diameter caps the gap (paper Fig 5b shows the same compression).
    assert row.giraph_supersteps > row.goffish_sssp_supersteps
    if graph == "CARN":
        assert row.giraph_supersteps > 3 * row.goffish_sssp_supersteps


def test_fig5b_summary(benchmark):
    assert len(ROWS) == 2

    def build():
        return [r.as_row() for r in ROWS]

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    emit(
        "fig5b",
        render_table(rows, title=f"Fig 5b — Giraph vs GoFFish (scale={SCALE}, 6 partitions)"),
    )
    # GoFFish SSSP vs multi-instance TDSP gap is large on CARN (paper: ~13×).
    carn = next(r for r in ROWS if r.graph == "CARN")
    assert carn.goffish_tdsp_50x / carn.goffish_sssp_1x > 4
