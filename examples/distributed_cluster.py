#!/usr/bin/env python
"""End-to-end distributed deployment: GoFS store + agent-per-partition cluster.

The closest single-machine analogue of the paper's AWS deployment:

1. partition a road network into 6 partitions (one per "VM");
2. write the 50-instance collection into a GoFS store (slice files with
   temporal packing 10, subgraph binning 5 — the paper's settings), then
   open it: the store gives back the partitioned graph, the collection and
   one view per partition, with nothing regenerated;
3. run TDSP on a **process cluster**: partition 0 runs in the driver and
   each other partition in a forked agent process; each loads *only its own
   slices* from the store, and the agents exchange messages with the driver
   over socketpairs (the BSP barrier);
4. compare with the in-process serial engine: identical results, and show
   the per-partition utilization split plus the every-10th-timestep GoFS
   load events.

Run:  python examples/distributed_cluster.py
"""

import tempfile
import time

import numpy as np

from repro import (
    EngineConfig,
    TDSPComputation,
    partition_graph,
    road_latency_collection,
    road_network,
    run_application,
)
from repro.algorithms import tdsp_labels_from_result
from repro.analysis import render_table, utilization_rows
from repro.storage import GoFS

SCALE = 6_000
INSTANCES = 50
PARTITIONS = 6


def main() -> None:
    template = road_network(SCALE, seed=3)
    collection = road_latency_collection(template, INSTANCES, seed=3)
    pg = partition_graph(template, PARTITIONS)
    comp = TDSPComputation(0, halt_when_stalled=True)

    with tempfile.TemporaryDirectory() as root:
        manifest = GoFS.write_collection(root, pg, collection)
        n_slices = sum(len(bins) for bins in manifest["bins"]) * (
            (INSTANCES + manifest["packing"] - 1) // manifest["packing"]
        )
        print(f"GoFS store: {n_slices} slice files "
              f"(packing={manifest['packing']}, binning={manifest['binning']})")

        runs = {}
        for executor in ("serial", "process"):
            stored_pg, stored, views = GoFS.open(root)
            start = time.perf_counter()
            res = run_application(
                comp, stored_pg, stored,
                sources=views, config=EngineConfig(executor=executor),
            )
            real = time.perf_counter() - start
            runs[executor] = res
            print(f"\n{executor} cluster: {res.timesteps_executed} timesteps in "
                  f"{real:.2f}s real ({res.total_wall_s:.3f}s simulated)")
            if executor == "serial":
                events = [(t, round(1e3 * s, 2)) for t, s in views[0].load_events]
                print(f"  partition 0 slice loads (timestep, ms): {events}")

        a = tdsp_labels_from_result(runs["serial"], template.num_vertices)
        b = tdsp_labels_from_result(runs["process"], template.num_vertices)
        same = np.allclose(np.nan_to_num(a, posinf=1e18), np.nan_to_num(b, posinf=1e18))
        print(f"\nserial and process clusters agree on all "
              f"{template.num_vertices} TDSP labels: {same}")

        print()
        print(render_table(
            [u.as_row() for u in utilization_rows(runs["serial"])],
            title="per-partition utilization (serial engine, simulated)",
        ))


if __name__ == "__main__":
    main()
