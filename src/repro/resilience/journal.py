"""Per-partition frame journal: the driver's WAL for host repair.

Recovery restores just the failed partition — but a checkpoint alone is
not enough to rebuild it, because the partition's state also depends on
every protocol round it executed since that checkpoint, including the
inbound :class:`~repro.core.messages.MessageFrame` deliveries those rounds
carried.

The :class:`FrameJournal` is a lightweight driver-side write-ahead log of
exactly that: for each partition, the ordered post-checkpoint protocol
rounds (``begin`` / ``superstep`` / ``eot`` / ``merge``) together with the
per-partition delivery payload each round shipped.  The supervisor appends
a round *before* issuing it, so at any failure the journal's tail entry is
the in-flight round and everything before it is committed work that a
respawned host must silently replay.

Lifecycle invariants:

* :meth:`append` — once per round, before the round executes (attempted
  retries of the same round never re-append);
* :meth:`truncate` — at every durable checkpoint write: the checkpoint
  becomes the new replay base, so the log restarts empty.

Only the recovered partition re-executes; the surviving hosts hold at the
barrier.
Replay results (outputs, frames, halt votes, telemetry) are discarded —
the driver committed them when the round first completed.

The journal relies on frames being immutable after
:meth:`~repro.core.messages.MessageFrame.pack` (see ``repro.core.messages``):
entries hold references, not copies, so journaling costs O(rounds), not
O(message bytes).
"""

from __future__ import annotations

from typing import Any, NamedTuple

__all__ = ["FrameJournal", "JournalEntry"]


class JournalEntry(NamedTuple):
    """One journaled protocol round for one partition.

    ``payload`` is the per-partition argument of the round: the begin
    round's GC pause seconds, a superstep/merge round's delivery list
    (``list[MessageFrame]``), or ``None`` for end-of-timestep.  With a
    sequence number and the replay mark in front, an entry is the command
    envelope a worker receives (:mod:`repro.runtime.process_cluster`).
    """

    op: str  #: begin | superstep | eot | merge
    timestep: int
    superstep: int  #: AT_BEGIN / AT_EOT for begin / eot rounds
    payload: Any


class FrameJournal:
    """Driver-side WAL of post-checkpoint protocol rounds, per partition."""

    def __init__(self, num_partitions: int) -> None:
        self.num_partitions = int(num_partitions)
        self._entries: list[list[JournalEntry]] = [[] for _ in range(self.num_partitions)]
        #: Rounds appended since construction (never reset; provenance aid).
        self.rounds_journaled = 0

    def append(
        self,
        op: str,
        timestep: int,
        superstep: int,
        payloads: list[Any] | None,
    ) -> None:
        """Journal one round for every partition, pre-execution.

        ``payloads`` is indexed by partition (``None`` journals a ``None``
        payload for everyone, e.g. end-of-timestep rounds).
        """
        for p in range(self.num_partitions):
            payload = payloads[p] if payloads is not None else None
            self._entries[p].append(JournalEntry(op, int(timestep), int(superstep), payload))
        self.rounds_journaled += 1

    def entries_for(self, partition: int) -> list[JournalEntry]:
        """The partition's post-checkpoint rounds, oldest first (a copy)."""
        return list(self._entries[partition])

    def truncate(self) -> None:
        """A durable checkpoint landed: it is the new replay base."""
        for entries in self._entries:
            entries.clear()

    def __len__(self) -> int:
        """Journaled rounds currently held (per partition)."""
        return len(self._entries[0]) if self._entries else 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FrameJournal({self.num_partitions} partitions, {len(self)} rounds held)"
