"""Per-timestep series extraction (Figures 6, 7a, 7c).

Turns run artifacts into the series the paper plots:

* :func:`pipelined_makespan` — a run's per-timestep walls
  (``metrics.timestep_series()``, Fig 6a/6b) scheduled onto W concurrent
  sub-clusters (the temporal concurrency §IV-B notes GoFFish leaves unused);
* :func:`frontier_matrix` — per-timestep × per-partition counts of newly
  finalized (TDSP, Fig 7a) or newly colored (MEME, Fig 7c) vertices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.results import AppResult
from ..partition.base import PartitionedGraph

__all__ = ["pipelined_makespan", "frontier_matrix", "frontier_totals"]


def pipelined_makespan(
    timestep_walls: Sequence[float], workers: int, merge_wall: float = 0.0
) -> float:
    """Simulated makespan of scheduling per-timestep walls onto ``workers``.

    Longest-processing-time-first greedy assignment — the contention-free
    schedule a platform with one sub-cluster per concurrent timestep would
    achieve for the independent / eventually dependent patterns, whose
    timesteps never interact before the Merge.  Feed it a finished run's
    ``metrics.timestep_series()`` and ``metrics.merge_wall()``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    loads = [0.0] * workers
    for wall in sorted(timestep_walls, reverse=True):
        loads[loads.index(min(loads))] += wall
    return max(loads) + merge_wall


def frontier_matrix(
    result: AppResult,
    pg: PartitionedGraph,
    *,
    num_timesteps: int | None = None,
) -> np.ndarray:
    """``M[t, p]`` = vertices newly finalized/colored at timestep ``t`` by partition ``p``.

    Works for any output record exposing ``timestep`` and ``count``
    attributes (``TDSPFrontier``, ``MemeFrontier``).
    """
    T = num_timesteps if num_timesteps is not None else result.timesteps_executed
    M = np.zeros((T, pg.num_partitions), dtype=np.int64)
    for _t, sgid, rec in result.outputs:
        count = getattr(rec, "count", None)
        t = getattr(rec, "timestep", None)
        if count is None or t is None or not 0 <= t < T:
            continue
        M[t, pg.subgraphs[sgid].partition_id] += count
    return M


def frontier_totals(result: AppResult, *, num_timesteps: int | None = None) -> np.ndarray:
    """Total newly finalized/colored vertices per timestep (partition-agnostic)."""
    T = num_timesteps if num_timesteps is not None else result.timesteps_executed
    totals = np.zeros(T, dtype=np.int64)
    for _t, _sg, rec in result.outputs:
        count = getattr(rec, "count", None)
        t = getattr(rec, "timestep", None)
        if count is not None and t is not None and 0 <= t < T:
            totals[t] += count
    return totals
