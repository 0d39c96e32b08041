"""Batched message plane: driver-routed units, frames, and combiners.

The paper's Fig 5b argument is that subgraph-centric engines win by moving
*fewer, bulkier* messages.  This bench quantifies our message plane on
TDSP/CARN with 6 partitions, under both partitioners:

* **METIS-like** cuts few edges, so the subgraph adjacency is sparse and
  frames carry only a message or two — the plane helps modestly;
* **hash** shatters the road network into thousands of co-located
  components and maximizes cut traffic — exactly the regime frame
  coalescing targets, where the driver's per-superstep unit count drops
  from one per message to one per (host, destination-partition) pair.

**driver-routed units**: before the plane the driver routed every
individual message (local, remote, and temporal alike); now same-partition
sends short-circuit inside the host and remote sends coalesce into frames,
so the driver's unit count is the frame count.  The acceptance bar is a
≥2× reduction on the high-cut configuration.

**combiner on/off**: TDSP's min-distance combiner folds co-located
subgraphs' updates to the same destination before the barrier, shrinking
remote messages and bytes at identical results.  The "off" arm runs a
TDSP subclass that defines no ``combine``.

With ``--json`` the same numbers land in ``BENCH_message_plane.json`` so
future PRs can track the perf trajectory.
"""

import time

from repro.algorithms import TDSPComputation
from repro.analysis import render_table
from repro.core import EngineConfig, run_application
from repro.partition import HashPartitioner, partition_graph
from repro.runtime import CostModel

from conftest import SCALE, SEED, emit

PARTITIONS = 6


class _RawTDSP(TDSPComputation):
    """TDSP without its combiner: every relaxation ships as sent."""

    combine = None


def _run(pg, collection, *, combiners):
    config = EngineConfig(cost_model=CostModel.for_scale(SCALE))
    comp = TDSPComputation if combiners else _RawTDSP
    t0 = time.perf_counter()
    res = run_application(comp(0, halt_when_stalled=True), pg, collection, config=config)
    wall = time.perf_counter() - t0
    m = res.metrics
    local, remote = m.total_local_messages(), m.total_remote_messages()
    frames = m.total_frames()
    return {
        "messages": m.total_messages(),
        "local": local,
        "remote": remote,
        "frames": frames,
        "bytes": sum(r.bytes_sent for r in m.step_records),
        # Driver work: one unit per individual message before the plane,
        # one per coalesced frame after (local sends never reach it at all).
        "driver_units_before": local + remote,
        "driver_units_after": frames,
        "sim_wall_s": round(res.total_wall_s, 4),
        "bench_wall_s": round(wall, 4),
    }


def test_message_plane(benchmark, datasets, partitioned, emit_json):
    tpl = datasets["CARN"]["template"]
    collection = datasets["CARN"]["road"]
    graphs = {
        "metis": partitioned("CARN", PARTITIONS),
        "hash": partition_graph(tpl, PARTITIONS, HashPartitioner(seed=SEED)),
    }

    def run_all():
        return [
            {"partitioner": pname, "combiners": "on" if c else "off",
             **_run(pg, collection, combiners=c)}
            for pname, pg in graphs.items()
            for c in (True, False)
        ]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(
        "message_plane",
        render_table(rows, title=f"Message plane (TDSP/CARN, {PARTITIONS} partitions)"),
    )

    by_key = {(r["partitioner"], r["combiners"]): r for r in rows}
    hash_on = by_key[("hash", "on")]
    emit_json(
        "message_plane",
        {
            "dataset": "CARN",
            "algorithm": "TDSP",
            "partitions": PARTITIONS,
            "scale": SCALE,
            "runs": rows,
            "driver_unit_reduction_x": round(
                hash_on["driver_units_before"] / max(hash_on["driver_units_after"], 1), 2
            ),
        },
    )

    # Acceptance: on the high-cut partitioning, frames cut the driver's
    # routing work by at least 2x versus per-message routing.
    assert hash_on["driver_units_after"] > 0
    assert hash_on["driver_units_before"] >= 2 * hash_on["driver_units_after"]
    # Combining can only reduce (or preserve) remote messages and bytes; it
    # never changes how many frames cross the barrier.
    for pname in graphs:
        on, off = by_key[(pname, "on")], by_key[(pname, "off")]
        assert on["remote"] <= off["remote"]
        assert on["bytes"] <= off["bytes"]
        assert on["frames"] == off["frames"]
