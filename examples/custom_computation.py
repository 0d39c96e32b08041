#!/usr/bin/env python
"""Writing your own TI-BSP computation: sensor-grid anomaly detection.

Demonstrates the full user-facing API on a scenario from the paper's intro
(environmental sensor networks): a grid of temperature sensors reports a
reading each timestep; we flag *anomalies* — sensors whose reading deviates
from both their neighborhood's current average and their own exponentially
weighted history.

The computation exercises every construct:

* ``compute`` with two supersteps per timestep (exchange boundary averages
  between subgraphs, then score anomalies);
* per-subgraph persistent ``state`` (the EWMA history);
* ``send_to_subgraph`` for neighbor averages across partition boundaries;
* ``send_to_next_timestep`` carrying each subgraph's anomaly count forward;
* ``end_of_timestep`` emitting results;
* ``vote_to_halt`` / BSP quiescence.

Run:  python examples/custom_computation.py
"""

import numpy as np

from repro import (
    AttributeSchema,
    AttributeSpec,
    GraphTemplate,
    Pattern,
    TimeSeriesComputation,
    build_collection,
    partition_graph,
    run_application,
)

GRID = 24  # sensors per side
TIMESTEPS = 12
ALPHA = 0.3  # EWMA weight
THRESHOLD = 4.0  # degrees of deviation that count as anomalous


def sensor_grid() -> GraphTemplate:
    src, dst = [], []
    for r in range(GRID):
        for c in range(GRID):
            v = r * GRID + c
            if c + 1 < GRID:
                src.append(v)
                dst.append(v + 1)
            if r + 1 < GRID:
                src.append(v)
                dst.append(v + GRID)
    return GraphTemplate(
        GRID * GRID,
        src,
        dst,
        vertex_schema=AttributeSchema([AttributeSpec("temperature", "float")]),
        name="sensor-grid",
    )


def weather(instance, timestep):
    """Smooth field + drifting hot spot + a few faulty sensors."""
    rng = np.random.default_rng(42 + timestep)
    xs, ys = np.meshgrid(np.arange(GRID), np.arange(GRID))
    field = 20 + 5 * np.sin(xs / 6 + timestep / 3) + 3 * np.cos(ys / 5)
    cx, cy = (timestep * 2) % GRID, (timestep * 3) % GRID
    hot = 12 * np.exp(-(((xs - cx) ** 2 + (ys - cy) ** 2) / 8.0))
    noise = rng.normal(0, 0.4, (GRID, GRID))
    temps = (field + hot + noise).ravel()
    faulty = rng.choice(GRID * GRID, size=3, replace=False)
    temps[faulty] += rng.choice([-15, 15], size=3)
    instance.vertex_values.set_column("temperature", temps)


class AnomalyDetector(TimeSeriesComputation):
    """Flags sensors deviating from neighborhood + their own history."""

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def compute(self, ctx):
        sg, st = ctx.subgraph, ctx.state
        if ctx.superstep == 0:
            temps = ctx.take_vertices("temperature")
            st["temps"] = temps
            if "ewma" not in st:
                st["ewma"] = temps.copy()
            # Ship boundary temperatures to neighbor subgraphs so their
            # neighborhood averages see across the partition cut.
            remote = sg.remote
            if len(remote):
                for nbr in sg.neighbor_subgraphs:
                    rows = remote.dst_subgraph == nbr
                    ctx.send_to_subgraph(
                        int(nbr),
                        (sg.vertices[remote.src_local[rows]], temps[remote.src_local[rows]]),
                    )
            return

        # Superstep 1: neighborhood average = local adjacency + remote info.
        temps = st["temps"]
        n = sg.num_vertices
        slot_src = np.repeat(np.arange(n), np.diff(sg.indptr))
        nbr_sum = np.zeros(n)
        nbr_cnt = np.zeros(n)
        np.add.at(nbr_sum, slot_src, temps[sg.indices])
        np.add.at(nbr_cnt, slot_src, 1.0)
        foreign = {}
        for msg in ctx.messages:
            verts, values = msg.payload
            foreign.update(zip(verts.tolist(), values.tolist()))
        if foreign:
            remote = sg.remote
            for row in range(len(remote)):
                gv = int(remote.dst_global[row])
                if gv in foreign:
                    lv = int(remote.src_local[row])
                    nbr_sum[lv] += foreign[gv]
                    nbr_cnt[lv] += 1.0
        nbr_avg = nbr_sum / np.maximum(nbr_cnt, 1.0)

        spatial_dev = np.abs(temps - nbr_avg)
        temporal_dev = np.abs(temps - st["ewma"])
        anomalies = (spatial_dev > THRESHOLD) & (temporal_dev > THRESHOLD)
        st["anomalies"] = sg.vertices[anomalies]
        st["ewma"] = ALPHA * temps + (1 - ALPHA) * st["ewma"]
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx):
        anomalies = ctx.state.get("anomalies", np.empty(0, dtype=np.int64))
        if len(anomalies):
            ctx.output((ctx.timestep, anomalies))
        running = ctx.state.get("running", 0) + len(anomalies)
        ctx.state["running"] = running
        ctx.send_to_next_timestep(running)


def main() -> None:
    template = sensor_grid()
    collection = build_collection(template, TIMESTEPS, weather, delta=60.0)
    pg = partition_graph(template, 4)
    result = run_application(AnomalyDetector(), pg, collection)

    print(f"sensor grid {GRID}x{GRID}, {TIMESTEPS} hourly readings, "
          f"{pg.num_partitions} partitions\n")
    per_t = {}
    for t, _sg, (timestep, anomalies) in result.outputs:
        per_t.setdefault(timestep, []).extend(int(v) for v in anomalies)
    for t in range(TIMESTEPS):
        hits = sorted(per_t.get(t, []))
        coords = ", ".join(f"({v // GRID},{v % GRID})" for v in hits[:6])
        more = f" (+{len(hits) - 6} more)" if len(hits) > 6 else ""
        print(f"  t={t:02d}: {len(hits):2d} anomalous sensors  {coords}{more}")
    total = sum(len(v) for v in per_t.values())
    print(f"\ntotal anomaly flags: {total} "
          f"({result.metrics.total_supersteps()} supersteps, "
          f"{result.metrics.total_messages()} messages)")


if __name__ == "__main__":
    main()
