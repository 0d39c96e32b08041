"""Critical-path analytics over a run's collector.

The collector's summary says how long the run took; this module answers the
operator's next question: **where did the time go, and who is to blame?**
It walks the span DAG implied by the step, load and GC records — within a
timestep, supersteps chain sequentially and each superstep's wall is pinned
by its slowest host — and attributes each timestep's wall to its longest
host chain, segment by segment:

* ``compute`` / ``send_flush`` — the critical (slowest) partition's busy
  split for each superstep;
* ``barrier`` — the modeled per-superstep barrier cost;
* ``load`` / ``gc`` — the slowest host's instance load (blocked portion)
  and GC pause at the timestep boundary;
* ``checkpoint`` / ``recovery`` — driver-charged costs on
  the timestep's critical path.

The report reads the tables of a
:class:`~repro.runtime.metrics.MetricsCollector` — a finished run's
``result.metrics`` (a resumed run's carries every timestep, so it is
reported whole), or ``MetricsCollector.from_events`` over a read-back
``events.jsonl`` — and re-partitions the same sums the collector's
``timestep_series`` computes, so its per-timestep walls add up to the run's
simulated makespan minus the merge phase.

The headline output is **straggler attribution**: for each partition, how
many supersteps it pinned (was the slowest host of) and how much wall it
contributed while critical — the live plane's ``straggler`` events tell you
who is slow *now*; this report tells you who cost you wall-clock over the
whole run, and in which segment.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Mapping

from ..runtime.metrics import PHASE_COMPUTE, MetricsCollector, StepRecord

__all__ = ["critical_path_report", "format_critical_path_report"]

#: Wall segments a timestep's critical path decomposes into.
SEGMENTS = (
    "compute",
    "send_flush",
    "barrier",
    "load",
    "gc",
    "checkpoint",
    "recovery",
)


def critical_path_report(metrics: MetricsCollector) -> dict[str, Any]:
    """Attribute each executed timestep's wall to its longest host chain.

    ``metrics`` is the run's collector: ``result.metrics``, or offline
    ``MetricsCollector.from_events(read_event_log(path), n, barrier_s=b)``.

    Returns a report dict::

        {
          "timesteps": [
            {"timestep": t, "wall_s": ..., "segments": {segment: seconds},
             "chain": [{"superstep": s, "partition": p, "busy_s": ...,
                        "compute_s": ..., "send_s": ...}, ...],
             "dominant_partition": p, "dominant_share": 0.0-1.0},
            ...
          ],
          "totals": {segment: seconds},
          "partitions": [
            {"partition": p, "critical_supersteps": n,
             "critical_busy_s": ..., "critical_loads": n,
             "critical_load_s": ...},
            ...
          ],
          "stragglers": [partition, ...],   # by critical wall, descending
        }
    """
    num_partitions, barrier_s = metrics.num_partitions, metrics.barrier_s
    # timestep -> superstep -> partition -> step record, compute phase only.
    steps: dict[int, dict[int, dict[int, StepRecord]]] = defaultdict(lambda: defaultdict(dict))
    for r in metrics.step_records:
        if r.phase == PHASE_COMPUTE:
            steps[r.timestep][r.superstep][r.partition] = r
    driver_costs = {
        "checkpoint": metrics.checkpoint_s,
        "recovery": metrics.recovery_s,
    }
    crit_supersteps = [0] * num_partitions
    crit_busy = [0.0] * num_partitions
    crit_loads = [0] * num_partitions
    crit_load_s = [0.0] * num_partitions
    totals = {seg: 0.0 for seg in SEGMENTS}
    per_timestep: list[dict[str, Any]] = []

    for t in sorted(metrics.supersteps_per_timestep):
        segments = {seg: 0.0 for seg in SEGMENTS}
        chain: list[dict[str, Any]] = []
        share = [0.0] * num_partitions
        for s, rows in sorted(steps[t].items()):
            # The superstep's wall is pinned by its slowest host: ties break
            # to the lowest partition id, deterministically.
            crit = max(rows, key=lambda p: (rows[p].busy_s, -p))
            r = rows[crit]
            segments["compute"] += r.compute_s
            segments["send_flush"] += r.send_s
            segments["barrier"] += barrier_s
            chain.append(
                {
                    "superstep": s,
                    "partition": crit,
                    "busy_s": r.busy_s,
                    "compute_s": r.compute_s,
                    "send_s": r.send_s,
                }
            )
            crit_supersteps[crit] += 1
            crit_busy[crit] += r.busy_s
            share[crit] += r.busy_s
        loads = [metrics.load_s.get((t, p), 0.0) for p in range(num_partitions)]
        peak = max(loads)
        segments["load"] = peak
        if peak > 0.0:
            slowest = max(range(num_partitions), key=lambda p: (loads[p], -p))
            crit_loads[slowest] += 1
            crit_load_s[slowest] += peak
            share[slowest] += peak
        segments["gc"] = max(metrics.gc_s.get((t, p), 0.0) for p in range(num_partitions))
        for seg, cost in driver_costs.items():
            segments[seg] = cost.get(t, 0.0)
        wall = sum(segments.values())
        dominant = max(range(num_partitions), key=lambda p: (share[p], -p))
        per_timestep.append(
            {
                "timestep": t,
                "wall_s": wall,
                "segments": segments,
                "chain": chain,
                "dominant_partition": dominant,
                "dominant_share": (share[dominant] / wall) if wall > 0 else 0.0,
            }
        )
        for seg in SEGMENTS:
            totals[seg] += segments[seg]

    order = sorted(
        range(num_partitions), key=lambda p: (crit_busy[p] + crit_load_s[p], -p), reverse=True
    )
    return {
        "timesteps": per_timestep,
        "totals": totals,
        "partitions": [
            {
                "partition": p,
                "critical_supersteps": crit_supersteps[p],
                "critical_busy_s": crit_busy[p],
                "critical_loads": crit_loads[p],
                "critical_load_s": crit_load_s[p],
            }
            for p in range(num_partitions)
        ],
        "stragglers": order,
    }


def format_critical_path_report(report: Mapping[str, Any], *, top: int = 3) -> str:
    """Render the report as a human-readable straggler-attribution summary."""
    lines: list[str] = []
    totals = report["totals"]
    total_wall = sum(totals.values())
    lines.append(f"critical path over {len(report['timesteps'])} timesteps "
                 f"({total_wall:.6f}s attributed)")
    for seg in SEGMENTS:
        v = totals[seg]
        if v > 0:
            pct = 100.0 * v / total_wall if total_wall > 0 else 0.0
            lines.append(f"  {seg:<11} {v:10.6f}s  {pct:5.1f}%")
    lines.append("straggler attribution (wall contributed while critical):")
    parts = {p["partition"]: p for p in report["partitions"]}
    for p in report["stragglers"][:top]:
        row = parts[p]
        lines.append(
            f"  partition {p}: pinned {row['critical_supersteps']} supersteps "
            f"({row['critical_busy_s']:.6f}s busy), "
            f"{row['critical_loads']} loads ({row['critical_load_s']:.6f}s)"
        )
    worst = sorted(
        report["timesteps"], key=lambda e: e["wall_s"], reverse=True
    )[:top]
    lines.append("slowest timesteps:")
    for entry in worst:
        lines.append(
            f"  t={entry['timestep']}: {entry['wall_s']:.6f}s, dominated by "
            f"partition {entry['dominant_partition']} "
            f"({100.0 * entry['dominant_share']:.0f}% of the wall)"
        )
    return "\n".join(lines)
