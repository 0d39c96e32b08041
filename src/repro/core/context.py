"""Execution contexts handed to user logic.

The paper's user-facing signatures (Section II-D)::

    Compute(Subgraph sg, int timestep, int superstep, Message[] msgs)
    EndOfTimestep(Subgraph sg, int timestep)
    Merge(SubgraphTemplate sgt, int superstep, Message[] msgs)

We bundle those parameters — plus the messaging constructs
``SendToSubgraph``, ``SendToNextTimestep``, ``SendToSubgraphInNextTimestep``,
``SendMessageToMerge``, ``VoteToHalt`` and ``VoteToHaltTimestep`` — into
context objects, which keeps user code free of framework plumbing and lets
the host collect sends/votes without global state.

Contexts also expose a per-subgraph ``state`` dict that persists for the
lifetime of the application on the owning host (subgraph objects are memory
resident on their partition in GoFFish), which algorithms use for cheap
cross-superstep and cross-timestep bookkeeping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..graph.instance import GraphInstance
from ..graph.subgraph import Subgraph
from .messages import Message, MessageKind, SendBuffer

if TYPE_CHECKING:
    from ..runtime.host import RunMeta

__all__ = ["ComputeContext", "EndOfTimestepContext", "MergeContext"]


class _BaseContext:
    """Shared plumbing: the call's coordinates, state, send buffer, run metadata.

    The host builds every context the same way, from its
    :class:`~repro.runtime.host.RunMeta`; a coordinate the call does not
    have is ``-1`` / ``None`` / empty (no ``superstep`` or ``messages`` at
    end of timestep; no ``instance`` or ``timestep`` in a merge).
    """

    __slots__ = (
        "subgraph",
        "instance",
        "timestep",
        "superstep",
        "messages",
        "state",
        "partition_state",
        "pattern",
        "num_timesteps",
        "delta",
        "t0",
        "_buffer",
    )

    def __init__(
        self,
        subgraph: Subgraph,
        instance: GraphInstance | None,
        timestep: int,
        superstep: int,
        messages: Sequence[Message],
        state: dict,
        meta: RunMeta,
        buffer: SendBuffer,
        partition_state: dict | None = None,
    ) -> None:
        self.subgraph = subgraph
        self.instance = instance
        self.timestep = timestep
        self.superstep = superstep
        self.messages = list(messages)
        self.state = state
        #: Dict shared by every subgraph of this *partition* (host-resident,
        #: like ``state``).  Enables Giraph++-style partition-centric logic —
        #: the coarser granularity the paper contrasts in Section V — and
        #: per-partition caching (e.g. one gathered column reused by all
        #: subgraphs of a host).  Not shared across partitions.
        self.partition_state = partition_state if partition_state is not None else {}
        self.pattern = meta.pattern
        self.num_timesteps = meta.num_timesteps
        self.delta = meta.delta
        self.t0 = meta.t0
        self._buffer = buffer

    # -- outputs -----------------------------------------------------------------

    def output(self, record: Any) -> None:
        """Emit an application result record (the paper's ``Output``/``Print``)."""
        self._buffer.outputs.append(record)


class ComputeContext(_BaseContext):
    """Context for the user's ``compute`` — one subgraph, one superstep."""

    __slots__ = ()

    # -- interpretation helpers (Section II-D, "User Logic") ----------------------

    @property
    def is_first_superstep(self) -> bool:
        """Start of this instance's BSP (timestep)."""
        return self.superstep == 0

    @property
    def is_first_timestep(self) -> bool:
        return self.timestep == 0

    @property
    def timestamp(self) -> float:
        """Absolute time of the current instance."""
        return self.t0 + self.timestep * self.delta

    # -- this instance's attribute values ---------------------------------------------

    def take_vertices(self, name: str) -> np.ndarray:
        """Vertex attribute ``name`` at this subgraph's vertices (local order);
        of a ragged attribute, a zero-based :class:`~repro.graph.Ragged` whose
        row ``i`` is local vertex ``i``'s values."""
        return self.instance.vertex_values.take(name, self.subgraph.vertices)

    def take_edges(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Edge attribute ``name`` at template edge ``rows``: pass
        ``subgraph.edge_index`` (CSR slot order), ``subgraph.remote.edge_index``
        or an array kept in ``state`` — sources cache their row lookup per
        array.  Unlike ``instance.edge_column(name)[rows]`` this builds
        nothing template-wide on a GoFS source."""
        return self.instance.edge_values.take(name, rows)

    def locate_edges(self, name: str, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`take_edges` without the copy: ``(values, index)``, ``values[index]``
        its result (``index is None``: ``values``) — on GoFS the pack's read-only
        row, so reading a few slots costs those.  Do not keep it past the timestep."""
        return self.instance.edge_values.locate(name, rows)

    # -- messaging constructs ------------------------------------------------------

    def send_to_subgraph(self, subgraph_id: int, payload: Any) -> None:
        """Message another subgraph, delivered next superstep (BSP bulk send).

        Delivery rides the batched message plane: a same-partition
        destination is delivered host-locally (the driver never routes it),
        and cross-partition sends are coalesced into per-partition frames.
        When the computation defines ``combine``, several sends to one
        destination may arrive as a single combined message."""
        self._buffer.superstep_sends.append(
            (
                int(subgraph_id),
                Message(payload, self.subgraph.subgraph_id, self.timestep, MessageKind.SUPERSTEP),
            )
        )

    def send_to_next_timestep(self, payload: Any) -> None:
        """Message the *same* subgraph in the next timestep (temporal edge).

        A silent no-op at the final timestep — the temporal edge points past
        the last instance (the paper's algorithms send unconditionally in
        ``EndOfTimestep``).
        """
        if not self._temporal_send_allowed():
            return
        self._buffer.temporal_sends.append(
            (
                self.subgraph.subgraph_id,
                Message(payload, self.subgraph.subgraph_id, self.timestep, MessageKind.TEMPORAL),
            )
        )

    def send_to_subgraph_in_next_timestep(self, subgraph_id: int, payload: Any) -> None:
        """Message another subgraph in the next timestep (space + time).

        Silent no-op at the final timestep, like :meth:`send_to_next_timestep`.
        """
        if not self._temporal_send_allowed():
            return
        self._buffer.temporal_sends.append(
            (
                int(subgraph_id),
                Message(payload, self.subgraph.subgraph_id, self.timestep, MessageKind.TEMPORAL),
            )
        )

    def send_to_merge(self, payload: Any) -> None:
        """Stash a message for the Merge phase (eventually dependent pattern)."""
        if not self.pattern.has_merge:
            raise RuntimeError(
                f"send_to_merge is only valid for the eventually dependent pattern, "
                f"not {self.pattern.name}"
            )
        self._buffer.merge_sends.append(
            Message(payload, self.subgraph.subgraph_id, self.timestep, MessageKind.MERGE)
        )

    def _temporal_send_allowed(self) -> bool:
        """Raise on pattern misuse; return False (drop) past the last instance."""
        if not self.pattern.allows_temporal_messages:
            raise RuntimeError(
                f"temporal sends are only valid for the sequentially dependent "
                f"pattern, not {self.pattern.name}"
            )
        return self.timestep + 1 < self.num_timesteps

    # -- votes ----------------------------------------------------------------------

    def vote_to_halt(self) -> None:
        """Vote to end this BSP timestep (reactivated by incoming messages)."""
        self._buffer.voted_halt = True

    def vote_to_halt_timestep(self) -> None:
        """Vote to end the *application's* timestep loop (While-style ranges)."""
        self._buffer.voted_halt_timestep = True


class EndOfTimestepContext(_BaseContext):
    """Context for ``end_of_timestep`` — invoked once per subgraph per timestep.

    May emit outputs and temporal/merge messages, but no superstep messages
    (the BSP for this instance has already terminated).
    """

    __slots__ = ()

    @property
    def timestamp(self) -> float:
        return self.t0 + self.timestep * self.delta

    take_vertices = ComputeContext.take_vertices
    take_edges = ComputeContext.take_edges
    send_to_next_timestep = ComputeContext.send_to_next_timestep
    send_to_subgraph_in_next_timestep = ComputeContext.send_to_subgraph_in_next_timestep
    send_to_merge = ComputeContext.send_to_merge
    _temporal_send_allowed = ComputeContext._temporal_send_allowed
    vote_to_halt_timestep = ComputeContext.vote_to_halt_timestep


class MergeContext(_BaseContext):
    """Context for ``merge`` — a BSP over subgraph *templates* after all timesteps.

    ``messages`` at superstep 0 are everything this subgraph sent via
    ``send_to_merge`` across all timesteps (ordered by timestep); at later
    supersteps they come from other subgraphs' merge supersteps.
    """

    __slots__ = ()

    def send_to_subgraph(self, subgraph_id: int, payload: Any) -> None:
        """Message another subgraph's merge, delivered next merge superstep."""
        self._buffer.superstep_sends.append(
            (
                int(subgraph_id),
                Message(payload, self.subgraph.subgraph_id, -1, MessageKind.MERGE),
            )
        )

    def vote_to_halt(self) -> None:
        """Vote to end the Merge BSP (and with it the application)."""
        self._buffer.voted_halt = True
