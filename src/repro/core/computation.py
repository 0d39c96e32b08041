"""User-facing computation base class for the TI-BSP model.

Applications subclass :class:`TimeSeriesComputation`, declare their design
pattern, and implement ``compute`` (always), ``end_of_timestep`` (optional)
and ``merge`` (required for the eventually dependent pattern).  The engine
invokes ``compute`` on *every subgraph* for *every graph instance* within the
chosen timestep range, per the paper's Section II-D.
"""

from __future__ import annotations

import abc

from .context import ComputeContext, EndOfTimestepContext, MergeContext
from .patterns import Pattern

__all__ = ["TimeSeriesComputation"]


class TimeSeriesComputation(abc.ABC):
    """Base class for TI-BSP applications.

    Subclasses set :attr:`pattern` (a class attribute) and implement the
    hook methods.  Instances must be picklable when running on a
    process-based cluster (keep configuration in plain attributes).

    Notes on semantics
    ------------------
    * ``compute`` is called on every subgraph at superstep 0 of each
      timestep; on later supersteps only subgraphs that received messages or
      did not vote to halt are invoked.
    * A BSP timestep terminates when every subgraph has voted to halt and no
      superstep messages are in flight.
    * For the sequentially dependent pattern the application terminates early
      (before the last instance) when, in some timestep, every subgraph voted
      ``vote_to_halt_timestep`` *and* no temporal messages were emitted —
      the paper's While-loop mode.  Otherwise it runs the full time range —
      the For-loop mode.
    """

    #: Design pattern; subclasses override (default: sequentially dependent,
    #: the pattern the paper focuses on).
    pattern: Pattern = Pattern.SEQUENTIALLY_DEPENDENT

    #: Optional Pregel-style combiner, applied at the *sending host* before
    #: the barrier: when several messages buffered in one superstep share a
    #: destination subgraph, the host replaces them with a single message
    #: carrying ``combine(dst, payloads)``.  Subclasses opt in by defining::
    #:
    #:     def combine(self, dst: int, payloads: list) -> payload: ...
    #:
    #: The hook must be associative-and-commutative-safe for the algorithm:
    #: receivers see one combined payload instead of the individual ones (the
    #: combined envelope has ``source_subgraph=None``).  Applied to superstep
    #: and merge-phase sends; temporal sends are never combined.  A
    #: computation that wants raw messages leaves it ``None``.
    combine = None

    @abc.abstractmethod
    def compute(self, ctx: ComputeContext) -> None:
        """Per-subgraph, per-superstep application logic."""

    def end_of_timestep(self, ctx: EndOfTimestepContext) -> None:
        """Invoked once per subgraph at the end of each timestep (optional)."""

    def merge(self, ctx: MergeContext) -> None:
        """Merge-phase logic (eventually dependent pattern only)."""
        raise NotImplementedError(
            f"{type(self).__name__} declares the eventually dependent pattern "
            "but does not implement merge()"
        )

    # -- metadata -----------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable computation name (class name by default)."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(pattern={self.pattern.value})"
