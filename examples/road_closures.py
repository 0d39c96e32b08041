#!/usr/bin/env python
"""Evolving topology: road closures, reachability, and network fragmentation.

The paper's data model handles slow topology change through the
``is_exists`` attribute (Section II-A).  This example gives a road network
periodic closures (maintenance windows) and asks two questions the TI-BSP
extensions answer:

* **temporal reachability** — starting from the depot at t0, when does each
  district become reachable as closures open and close?  (Sequentially
  dependent pattern.)
* **community evolution** — how does the road network fragment and re-knit
  over time?  Components per timestep, plus split/merge events between
  consecutive instances.  (Eventually dependent pattern with a Merge.)

Run:  python examples/road_closures.py
"""

import numpy as np

from repro import partition_graph, road_network, run_application
from repro.algorithms import (
    CommunityEvolutionComputation,
    TemporalReachabilityComputation,
    largest_subgraph_in_partition,
    reached_timesteps_from_result,
)
from repro.analysis import render_series
from repro.generators import PeriodicExistencePopulator
from repro.graph import AttributeSchema, AttributeSpec, build_collection

SCALE = 2_500
INSTANCES = 16


def main() -> None:
    base = road_network(SCALE, seed=31)
    # Rebuild with an is_exists edge schema (closures toggle segments).
    from repro.graph import GraphTemplate

    template = GraphTemplate(
        base.num_vertices,
        base.edge_src,
        base.edge_dst,
        edge_schema=AttributeSchema([AttributeSpec("is_exists", "bool", default=True)]),
        name="city-with-closures",
    )
    closures = PeriodicExistencePopulator(
        template, min_period=4, max_period=8, duty=0.55, always_on_fraction=0.55, seed=31
    )
    collection = build_collection(template, INSTANCES, closures, lazy=True)
    pg = partition_graph(template, 4)

    closed_frac = [1.0 - closures.exists_at(t).mean() for t in range(INSTANCES)]
    print(f"road network: {template.num_vertices} intersections, "
          f"{template.num_edges} segments; "
          f"{100 * np.mean(closed_frac):.0f}% closed on average\n")

    # --- temporal reachability from the depot --------------------------------------
    reach = run_application(TemporalReachabilityComputation(0), pg, collection)
    reached = reached_timesteps_from_result(reach)
    per_step = np.zeros(INSTANCES, dtype=int)
    for _v, t in reached.items():
        per_step[t] += 1
    print(f"depot reaches {len(reached)}/{template.num_vertices} intersections "
          f"within {INSTANCES} windows")
    print(render_series(per_step, label="newly reachable per window", fmt="{:d}"))
    if len(reached) < template.num_vertices:
        blocked = template.num_vertices - len(reached)
        print(f"{blocked} intersections stay cut off for the whole horizon")

    # --- community evolution ----------------------------------------------------------
    comp = CommunityEvolutionComputation(
        template.num_vertices, largest_subgraph_in_partition(pg, 0)
    )
    evo = run_application(comp, pg, collection)
    (_sg, summary), = evo.merge_outputs
    print("\nnetwork fragments (non-singleton components) per window:")
    print(render_series(summary.num_communities, label="  components", fmt="{:d}"))
    print("transitions between consecutive windows:")
    print(render_series(summary.splits, label="  splits ", fmt="{:d}"))
    print(render_series(summary.merges, label="  merges ", fmt="{:d}"))
    worst = int(np.argmax(summary.num_communities))
    print(f"\nmost fragmented window: t={worst} "
          f"({summary.num_communities[worst]} disconnected districts)")


if __name__ == "__main__":
    main()
