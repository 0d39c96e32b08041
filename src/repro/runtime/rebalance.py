"""Dynamic subgraph rebalancing (paper Section IV-D's research opportunity).

    "Partitions which are active at a given timestep can pass some of their
    subgraphs to an idle partition if the potential improvements in average
    CPU utilization outweighs the cost of rebalancing.  In the
    subgraph-centric models, partitioning produces a long tail of small
    subgraphs in each partition and one large subgraph dominates.  So these
    small subgraphs could be candidates for moving."

This module implements exactly that: between timesteps of a sequentially
dependent run, a :class:`GreedyRebalancer` inspects the previous timestep's
per-partition busy times and migrates *small* subgraphs from the busiest
partition to the idlest one.  Migration moves the subgraph's topology
reference and resident state between hosts and charges a modeled transfer
cost (state bytes over the network).

Constraints:

* only supported on in-process clusters (``LocalCluster``) whose hosts read
  *full* instances (shared collection sources) — GoFS partition views only
  hold their own partition's slices, so a migrated subgraph would see
  default attribute values;
* the engine updates the shared subgraph→partition routing array, so
  message routing follows the move immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .cluster import LocalCluster
from .cost import CostModel

__all__ = ["Migration", "RebalancePolicy", "GreedyRebalancer", "apply_migrations"]


@dataclass(frozen=True)
class Migration:
    """One subgraph move, decided by a policy."""

    subgraph_id: int
    source_partition: int
    target_partition: int


class RebalancePolicy(Protocol):
    """Decides migrations from per-partition busy history."""

    def decide(
        self,
        busy_s: np.ndarray,
        partition_subgraphs: list[list[tuple[int, int]]],
    ) -> list[Migration]:
        """``busy_s[p]``: last timestep's busy seconds; ``partition_subgraphs[p]``:
        ``(subgraph_id, num_vertices)`` pairs currently on partition ``p``."""
        ...


@dataclass
class GreedyRebalancer:
    """Move small subgraphs from the busiest to the idlest partition.

    Parameters
    ----------
    imbalance_threshold:
        Only act when ``max(busy) > threshold × mean(busy)``.
    max_moves_per_timestep:
        Cap on migrations per boundary (keeps transfer cost bounded).
    max_fraction:
        Only subgraphs at most this fraction of their partition's vertices
        qualify (the paper's "small subgraphs" — never the dominant one).
    """

    imbalance_threshold: float = 1.5
    max_moves_per_timestep: int = 2
    max_fraction: float = 0.25
    #: Decision log for analysis (appended on every decide call).
    history: list[list[Migration]] = field(default_factory=list)

    def decide(self, busy_s, partition_subgraphs):
        busy = np.asarray(busy_s, dtype=float)
        moves: list[Migration] = []
        mean = busy.mean() if len(busy) else 0.0
        if mean > 0 and busy.max() > self.imbalance_threshold * mean:
            src = int(np.argmax(busy))
            dst = int(np.argmin(busy))
            if src != dst:
                sizes = partition_subgraphs[src]
                total = sum(n for _sg, n in sizes)
                candidates = sorted(
                    (
                        (n, sgid)
                        for sgid, n in sizes
                        if total and n <= self.max_fraction * total
                    ),
                )
                # Keep at least one subgraph on the source partition.
                limit = min(self.max_moves_per_timestep, max(0, len(sizes) - 1))
                for n, sgid in candidates[:limit]:
                    moves.append(Migration(sgid, src, dst))
        self.history.append(moves)
        return moves


def apply_migrations(
    cluster: LocalCluster,
    migrations: list[Migration],
    sg_part: np.ndarray,
    cost_model: CostModel,
    recorder,
) -> float:
    """Execute migrations on an in-process cluster.

    Moves subgraph topology + resident state (including any host-local
    temporal inbox buffered for the next timestep) between hosts, updates
    the shared routing array in place, and returns the modeled transfer
    cost in seconds (charged to the next timestep's wall by the engine).
    One ``migrate`` trace event per move is stated to ``recorder`` (the
    run's :class:`~repro.observability.RunRecorder`).
    """
    if not isinstance(cluster, LocalCluster):
        raise NotImplementedError(
            "dynamic rebalancing is only supported on in-process clusters"
        )
    total_cost = 0.0
    for move in migrations:
        src_host = cluster.hosts[move.source_partition]
        dst_host = cluster.hosts[move.target_partition]
        sg, state, merge, temporal = src_host.evict_subgraph(move.subgraph_id)
        dst_host.adopt_subgraph(sg, state, merge, temporal)
        sg_part[move.subgraph_id] = move.target_partition
        # Transfer cost: resident state (plus any buffered temporal inbox)
        # shipped over the interconnect.
        nbytes = _state_nbytes(state) + 16 * sg.num_vertices
        nbytes += sum(m.approx_size() for m in temporal)
        cost = cost_model.remote_send_cost(1, nbytes)
        total_cost += cost
        recorder.event(
            "migrate",
            subgraph=move.subgraph_id,
            src=move.source_partition,
            dst=move.target_partition,
            nbytes=nbytes,
            cost_s=cost,
        )
    return total_cost


def _state_nbytes(state: dict) -> int:
    """Rough size of a subgraph's resident state."""
    total = 0
    for value in state.values():
        if hasattr(value, "nbytes"):
            total += int(value.nbytes)
        elif isinstance(value, (list, tuple, set, dict)):
            total += 32 * max(1, len(value))
        else:
            total += 16
    return total
