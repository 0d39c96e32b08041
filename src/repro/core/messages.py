"""Messages, message buffers, and packed frames for TI-BSP execution.

BSP semantics (Section II-C/D): messages generated in one superstep are
transmitted *in bulk* between supersteps and are visible to the destination
subgraph's ``compute`` in the next superstep.  The TI-BSP extension adds
temporal messages (delivered at superstep 0 of the next *timestep*) and merge
messages (delivered to the Merge phase after all timesteps finish).

A message's ``kind`` tells the receiving ``compute`` how to interpret it —
the paper derives the same information from ``superstep == 0`` /
``timestep == 0`` context, which also works here, but the explicit kind keeps
mixed deliveries unambiguous.

The *message plane* (GoFFish host-local delivery, Section II-C) distinguishes
two paths:

* **local** — sender and destination subgraph live on the same partition;
  the host delivers straight into its own next-superstep inbox and the
  driver never sees the message;
* **remote** — messages crossing partitions are coalesced into one
  :class:`MessageFrame` per destination partition and shipped in bulk after
  the barrier ("fewer, bulkier messages", Fig 5b).
"""

from __future__ import annotations

import enum
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .._value import Value

__all__ = [
    "MessageKind",
    "Message",
    "SendBuffer",
    "MessageFrame",
    "frames_from_deliveries",
    "route_frames",
]


class MessageKind(enum.Enum):
    """Provenance of a delivered message."""

    APP_INPUT = "app_input"  #: application input, delivered at the very first superstep
    SUPERSTEP = "superstep"  #: from another subgraph in the previous superstep
    TEMPORAL = "temporal"  #: from the previous timestep (sequentially dependent)
    MERGE = "merge"  #: collected for / exchanged during the Merge phase


class Message(NamedTuple):
    """An immutable message envelope (a NamedTuple: one is built per send).

    Attributes
    ----------
    payload:
        Arbitrary application data.  For performance-sensitive algorithms,
        prefer numpy arrays over large Python object graphs (bulk transfer,
        cheap pickling) — the mpi4py idiom from the HPC guides.
    source_subgraph:
        Global subgraph id of the sender, ``None`` for application inputs
        and for combined messages (a combiner folds several senders into
        one envelope).
    timestep:
        Timestep at which the message was *sent* (``-1`` for app inputs).
    kind:
        :class:`MessageKind` provenance tag.
    """

    payload: Any
    source_subgraph: int | None = None
    timestep: int = -1
    kind: MessageKind = MessageKind.SUPERSTEP

    def approx_size(self) -> int:
        """Rough payload size in bytes, used by the messaging cost model."""
        p = self.payload
        if hasattr(p, "nbytes"):
            return int(p.nbytes)
        if isinstance(p, (bytes, bytearray, str)):
            return len(p)
        if isinstance(p, (list, tuple, set, frozenset, dict)):
            return 16 * max(1, len(p))
        return 16


class SendBuffer(Value):
    """Per-compute-call collection of outgoing messages and votes.

    One buffer is attached to each :class:`~repro.core.context.ComputeContext`;
    the host drains it after the user's ``compute``/``end_of_timestep``/
    ``merge`` returns.  Destinations are global subgraph ids.
    """

    __slots__ = (
        "superstep_sends", "temporal_sends", "merge_sends", "voted_halt",
        "voted_halt_timestep", "outputs",
    )

    def __init__(
        self, superstep_sends: list[tuple[int, Message]] | None = None,
        temporal_sends: list[tuple[int, Message]] | None = None,
        merge_sends: list[Message] | None = None, voted_halt: bool = False,
        voted_halt_timestep: bool = False, outputs: list[Any] | None = None,
    ) -> None:
        self.superstep_sends = [] if superstep_sends is None else superstep_sends
        self.temporal_sends = [] if temporal_sends is None else temporal_sends
        self.merge_sends = [] if merge_sends is None else merge_sends
        self.voted_halt, self.voted_halt_timestep = voted_halt, voted_halt_timestep
        self.outputs = [] if outputs is None else outputs


class MessageFrame:
    """Coalesced deliveries for one destination partition.

    The unit the driver routes: destination subgraph ids as one int64 array,
    payload envelopes as one list, and the total payload bytes precomputed
    at pack time (``approx_size`` is called once per message when the frame
    is built, never re-summed).  With pickle protocol 5 the destination
    array and any numpy payloads cross worker sockets as out-of-band buffers.

    Frames are treated as immutable once packed: ``deliver_into`` only
    reads, and nothing in the engine rewrites ``destinations``/``messages``
    afterward.  The surgical-recovery journal
    (:attr:`~repro.resilience.supervisor.HostSupervisor.rounds`) depends on this — it
    holds *references* to delivered frames and redelivers the same objects
    on replay, so computations must treat message payloads as read-only
    (every repro workload does).
    """

    __slots__ = ("src_partition", "dst_partition", "destinations", "messages", "nbytes")

    def __init__(
        self,
        src_partition: int,
        dst_partition: int,
        destinations: np.ndarray,
        messages: list[Message],
        nbytes: int = 0,
    ) -> None:
        if len(destinations) != len(messages):
            raise ValueError("one destination subgraph id per message")
        self.src_partition = int(src_partition)
        self.dst_partition = int(dst_partition)
        self.destinations = np.asarray(destinations, dtype=np.int64)
        self.messages = messages
        self.nbytes = int(nbytes)

    @classmethod
    def pack(
        cls, src_partition: int, dst_partition: int, sends: Sequence[tuple[int, Message]]
    ) -> "MessageFrame":
        """Build a frame from ``(destination subgraph, message)`` pairs."""
        dsts = np.fromiter((d for d, _ in sends), dtype=np.int64, count=len(sends))
        msgs = [m for _, m in sends]
        return cls(
            src_partition, dst_partition, dsts, msgs, sum(m.approx_size() for m in msgs)
        )

    def __len__(self) -> int:
        return len(self.messages)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MessageFrame({self.src_partition}->{self.dst_partition}, "
            f"{len(self.messages)} msgs, {self.nbytes} B)"
        )

    def deliver_into(self, inbox: dict[int, list[Message]]) -> None:
        """Unpack into a per-subgraph inbox (appends, preserving order)."""
        dsts = self.destinations
        msgs = self.messages
        for i in range(len(msgs)):
            inbox.setdefault(int(dsts[i]), []).append(msgs[i])


def frames_from_deliveries(
    deliveries: Mapping[int, Sequence[Message]],
    subgraph_partition: np.ndarray,
    num_partitions: int,
    *,
    src_partition: int = -1,
) -> list[list[MessageFrame]]:
    """Wrap a driver-side delivery map into at most one frame per partition.

    Used for the application inputs delivered at superstep 0: the driver
    holds them as ``{subgraph id: messages}`` and ships them to hosts in the
    same framed form the hosts use for remote sends.  Frame ``nbytes`` stays
    0 — app inputs are free in the cost model.
    """
    per_part: list[list[tuple[int, Message]]] = [[] for _ in range(num_partitions)]
    for sgid, msgs in deliveries.items():
        dst = per_part[int(subgraph_partition[sgid])]
        for m in msgs:
            dst.append((int(sgid), m))
    return [
        [MessageFrame(
            src_partition,
            p,
            np.fromiter((d for d, _ in sends), dtype=np.int64, count=len(sends)),
            [m for _, m in sends],
        )] if sends else []
        for p, sends in enumerate(per_part)
    ]


def route_frames(
    frames: Iterable[MessageFrame], num_partitions: int
) -> list[list[MessageFrame]]:
    """Route frames to their destination partitions (the driver's whole job).

    The driver never touches individual messages on this path — it moves
    opaque frames, so its routing work scales with partition pairs, not
    message count.
    """
    per_part: list[list[MessageFrame]] = [[] for _ in range(num_partitions)]
    for f in frames:
        per_part[f.dst_partition].append(f)
    return per_part
