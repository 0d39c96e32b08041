"""Critical-path analytics over the structured event log.

``trace_replay`` proves the event log is *complete* (its replay matches the
collector numerically).  This module answers the operator's next question:
**where did the time go, and who is to blame?**  It walks the span DAG
implied by the ``step``/``instance_load``/``gc_pause`` events — within a
timestep, supersteps chain sequentially and each superstep's wall is pinned
by its slowest host — and attributes each timestep's wall to its longest
host chain, segment by segment:

* ``compute`` / ``send_flush`` — the critical (slowest) partition's busy
  split for each superstep;
* ``barrier`` — the modeled per-superstep barrier cost;
* ``load`` / ``gc`` — the slowest host's instance load (blocked portion)
  and GC pause at the timestep boundary;
* ``migration`` / ``checkpoint`` / ``prefetch`` / ``recovery`` — driver-
  charged costs on the timestep's critical path.

The per-timestep wall this attribution sums to is *exactly* the quantity
``replay_timestep_walls`` derives (same events, same arithmetic), so
:func:`crosscheck_critical_path` validates the report against both the
replay and the run's :class:`~repro.runtime.metrics.MetricsCollector`, the
way ``trace_replay.crosscheck_trace`` does.

The headline output is **straggler attribution**: for each partition, how
many supersteps it pinned (was the slowest host of) and how much wall it
contributed while critical — the live plane's ``straggler`` events tell you
who is slow *now*; this report tells you who cost you wall-clock over the
whole run, and in which segment.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Mapping, Sequence

from ..core.results import AppResult
from ..runtime.metrics import PHASE_COMPUTE
from .trace_replay import replay_timestep_walls

__all__ = [
    "critical_path_report",
    "crosscheck_critical_path",
    "format_critical_path_report",
]

#: Wall segments a timestep's critical path decomposes into.
SEGMENTS = (
    "compute",
    "send_flush",
    "barrier",
    "load",
    "gc",
    "migration",
    "checkpoint",
    "prefetch",
    "recovery",
)


def critical_path_report(
    events: Sequence[Mapping],
    num_partitions: int,
    *,
    barrier_s: float = 0.0,
) -> dict[str, Any]:
    """Attribute each timestep's wall to its longest host chain.

    Parameters mirror ``replay_timestep_walls``: the run's event records
    (``result.trace.event_records()`` or a read-back ``events.jsonl``), the
    cluster width, and the modeled per-superstep barrier cost from the run
    manifest.

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
    # (timestep, superstep) -> partition -> step event, compute phase only.
    steps: dict[tuple[int, int], dict[int, Mapping]] = defaultdict(dict)
    loads: dict[int, list[float]] = defaultdict(lambda: [0.0] * num_partitions)
    gcs: dict[int, list[float]] = defaultdict(lambda: [0.0] * num_partitions)
    driver_costs: dict[int, dict[str, float]] = defaultdict(
        lambda: {"migration": 0.0, "checkpoint": 0.0, "prefetch": 0.0, "recovery": 0.0}
    )
    for e in events:
        kind = e.get("kind")
        if kind == "step":
            if e["phase"] == PHASE_COMPUTE:
                steps[(e["timestep"], e["superstep"])][e["partition"]] = e
        elif kind == "instance_load":
            loads[e["timestep"]][e["partition"]] += e["seconds"]
        elif kind == "gc_pause":
            gcs[e["timestep"]][e["partition"]] += e["seconds"]
        elif kind == "migration":
            driver_costs[e["timestep"]]["migration"] += e["cost_s"]
        elif kind == "checkpoint_write":
            driver_costs[e["timestep"]]["checkpoint"] += e["cost_s"]
        elif kind == "prefetch_issue":
            driver_costs[e["timestep"]]["prefetch"] += e["cost_s"]
        elif kind in ("worker_respawn", "protocol_retry"):
            # Host repairs charge the round's timestep.
            driver_costs[e["timestep"]]["recovery"] += e["seconds"]

    timesteps = sorted(
        {t for (t, _s) in steps}
        | set(loads)
        | set(gcs)
        | {t for t in driver_costs if t >= 0}
    )
    crit_supersteps = [0] * num_partitions
    crit_busy = [0.0] * num_partitions
    crit_loads = [0] * num_partitions
    crit_load_s = [0.0] * num_partitions
    totals = {seg: 0.0 for seg in SEGMENTS}
    per_timestep: list[dict[str, Any]] = []

    for t in timesteps:
        segments = {seg: 0.0 for seg in SEGMENTS}
        chain: list[dict[str, Any]] = []
        share = [0.0] * num_partitions
        for (tt, s) in sorted(k for k in steps if k[0] == t):
            rows = steps[(tt, s)]
            # The superstep's wall is pinned by its slowest host: ties break
            # to the lowest partition id, deterministically.
            crit = max(rows, key=lambda p: (rows[p]["compute_s"] + rows[p]["send_s"], -p))
            e = rows[crit]
            busy = e["compute_s"] + e["send_s"]
            segments["compute"] += e["compute_s"]
            segments["send_flush"] += e["send_s"]
            segments["barrier"] += barrier_s
            chain.append(
                {
                    "superstep": s,
                    "partition": crit,
                    "busy_s": busy,
                    "compute_s": e["compute_s"],
                    "send_s": e["send_s"],
                }
            )
            crit_supersteps[crit] += 1
            crit_busy[crit] += busy
            share[crit] += busy
        if t in loads:
            peak = max(loads[t])
            segments["load"] += peak
            if peak > 0.0:
                slowest = max(range(num_partitions), key=lambda p: (loads[t][p], -p))
                crit_loads[slowest] += 1
                crit_load_s[slowest] += peak
                share[slowest] += peak
        if t in gcs:
            segments["gc"] += max(gcs[t])
        for seg, cost in driver_costs.get(t, {}).items():
            segments[seg] += cost
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


def crosscheck_critical_path(
    result: AppResult,
    *,
    tolerance: float = 1e-9,
) -> list[str]:
    """Validate the attribution against the replay *and* the collector.

    Two invariants, checked per timestep with the same relative tolerance
    discipline as ``crosscheck_trace``:

    * the report's wall equals ``replay_timestep_walls`` (the attribution
      re-partitions the same sum — only float association order differs);
    * the report's wall equals ``MetricsCollector.timestep_wall`` (the
      collector never saw the events at all).

    Returns mismatch descriptions; empty means the attribution is exact.
    """
    if result.trace is None:
        raise ValueError("result has no trace — run with EngineConfig(tracing=True)")
    if result.metrics is None:
        raise ValueError("result has no metrics")
    m = result.metrics
    events = result.trace.event_records()
    if any(e.get("kind") == "restore" and e.get("resumed") for e in events):
        raise ValueError(
            "cannot cross-check a resumed run: its metrics carry records from "
            "the original run, but its trace starts at the resume point"
        )
    report = critical_path_report(events, m.num_partitions, barrier_s=m.barrier_s)
    walls = replay_timestep_walls(events, m.num_partitions, barrier_s=m.barrier_s)
    problems: list[str] = []
    for entry in report["timesteps"]:
        t = entry["timestep"]
        g = entry["wall_s"]
        for label, w in (("replay", walls.get(t, 0.0)), ("collector", m.timestep_wall(t))):
            if abs(g - w) > tolerance * max(1.0, abs(w)):
                problems.append(
                    f"timestep {t} wall: critical-path {g!r} != {label} {w!r}"
                )
    return problems


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
