"""Per-timestep series extraction (Figures 7a, 7c).

Turns run artifacts into the series the paper plots: :func:`frontier_matrix`
— per-timestep × per-partition counts of newly finalized (TDSP, Fig 7a) or
newly colored (MEME, Fig 7c) vertices.
"""

from __future__ import annotations

import numpy as np

from ..core.results import AppResult
from ..partition.base import PartitionedGraph

__all__ = ["frontier_matrix", "frontier_totals"]


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
