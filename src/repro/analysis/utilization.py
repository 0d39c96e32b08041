"""Per-partition utilization breakdown (Figures 7b, 7d).

The paper splits each partition's time into *Compute*, *Partition Overhead*
(message sending after compute) and *Sync Overhead* (idling at the BSP
barrier), and shows that algorithm skew — TDSP's traveling frontier, MEME's
uneven meme placement — leaves some partitions at ~30 % compute utilization.
"""

from __future__ import annotations

from typing import NamedTuple

from ..core.results import AppResult

__all__ = ["UtilizationRow", "utilization_rows"]


class UtilizationRow(NamedTuple):
    """One partition's bar in Fig 7b/7d."""

    partition: int
    compute_fraction: float
    partition_overhead_fraction: float
    sync_overhead_fraction: float
    compute_s: float
    total_s: float

    def as_row(self) -> dict:
        return {
            "partition": self.partition,
            "compute_%": round(100 * self.compute_fraction, 1),
            "partition_overhead_%": round(100 * self.partition_overhead_fraction, 1),
            "sync_overhead_%": round(100 * self.sync_overhead_fraction, 1),
            "compute_s": round(self.compute_s, 4),
        }


def utilization_rows(result: AppResult) -> list[UtilizationRow]:
    """Compute the per-partition utilization split for a finished run."""
    if result.metrics is None:
        raise ValueError("result has no metrics")
    rows = []
    for b in result.metrics.partition_breakdown():
        cf, pf, sf = b.fractions()
        rows.append(
            UtilizationRow(
                partition=b.partition,
                compute_fraction=cf,
                partition_overhead_fraction=pf,
                sync_overhead_fraction=sf,
                compute_s=b.compute_s,
                total_s=b.total_s,
            )
        )
    return rows
