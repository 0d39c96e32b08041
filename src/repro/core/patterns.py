"""The three design patterns for time-series graph algorithms (Section II-B).

1. **INDEPENDENT** — analysis over every graph instance is independent; the
   application result is the union of per-instance results.  Both spatial
   (across subgraphs) and temporal (across instances) concurrency can be
   exploited.
2. **EVENTUALLY_DEPENDENT** — instances execute independently but a final
   ``Merge`` step aggregates results from all instances.
3. **SEQUENTIALLY_DEPENDENT** — analysis over instance *t+1* cannot start
   before the results of instance *t* are available; exactly one BSP timestep
   is active at a time, and state flows forward along temporal edges.

The engine uses the pattern to pick the timestep schedule and to decide which
messaging constructs are legal (e.g. ``send_to_next_timestep`` only makes
sense for the sequentially dependent pattern).
"""

from __future__ import annotations

import enum

__all__ = ["Pattern"]


class Pattern(enum.Enum):
    """Execution/design pattern of a :class:`~repro.core.computation.TimeSeriesComputation`."""

    INDEPENDENT = "independent"
    EVENTUALLY_DEPENDENT = "eventually_dependent"
    SEQUENTIALLY_DEPENDENT = "sequentially_dependent"

    @property
    def allows_temporal_messages(self) -> bool:
        """Only the sequentially dependent pattern may message the next timestep."""
        return self is Pattern.SEQUENTIALLY_DEPENDENT

    @property
    def has_merge(self) -> bool:
        """Only the eventually dependent pattern runs a Merge phase."""
        return self is Pattern.EVENTUALLY_DEPENDENT
