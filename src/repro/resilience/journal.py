"""The frame journal: the driver's WAL for host repair.

Recovery restores just the failed partition — but a checkpoint alone is
not enough to rebuild it, because the partition's state also depends on
every protocol round it executed since that checkpoint, including the
inbound :class:`~repro.core.messages.MessageFrame` deliveries those rounds
carried.

The :class:`FrameJournal` is a lightweight driver-side write-ahead log of
exactly that: the ordered post-checkpoint protocol rounds (``superstep`` /
``eot`` / ``merge``), each with the per-partition payload list it
shipped.  The supervisor appends a round *before* issuing it, so at any
failure the journal's tail entry is the in-flight round and everything
before it is committed work that a respawned host must silently replay.

Lifecycle invariants:

* :meth:`append` — once per round, before the round executes (attempted
  retries of the same round never re-append);
* :meth:`truncate` — at every durable checkpoint write: the checkpoint
  becomes the new replay base, so the log restarts empty.

Only the recovered partition re-executes; the surviving hosts hold at the
barrier.
Replay results (outputs, frames, halt votes, telemetry) are discarded —
the driver committed them when the round first completed.

An append stores one tuple per round and holds the payload list by
reference, which relies on frames being immutable after
:meth:`~repro.core.messages.MessageFrame.pack` (see ``repro.core.messages``);
a partition's :class:`JournalEntry` list is built only when a repair asks
for it.  What the journal costs is memory: it keeps every frame it
delivered alive until the next checkpoint truncates it, so a run without
checkpoints holds all of its remote frames to the end — about 4 kB on a
200k-vertex TDSP run, 1 MB on a 200k-vertex MEME run over WIKI
(``bytes_sent``).
"""

from __future__ import annotations

from typing import Any, NamedTuple

__all__ = ["AT_EOT", "FrameJournal", "JournalEntry"]

#: Superstep sentinel for the ``end_of_timestep`` protocol call: the
#: coordinate an ``eot`` round is journaled, supervised and fault-matched at.
AT_EOT = -102


class JournalEntry(NamedTuple):
    """One journaled protocol round for one partition.

    ``payload`` is the per-partition argument of the round: a
    superstep/merge round's delivery list (``list[MessageFrame]``), or
    ``None`` for end-of-timestep.  With a sequence number and the replay
    mark in front, an entry is the command envelope a worker receives
    (:mod:`repro.runtime.process_cluster`).
    """

    op: str  #: superstep | eot | merge
    timestep: int
    superstep: int  #: AT_EOT for eot rounds
    payload: Any


class FrameJournal:
    """Driver-side WAL of post-checkpoint protocol rounds."""

    def __init__(self, num_partitions: int) -> None:
        self.num_partitions = int(num_partitions)
        #: ``(op, timestep, superstep, payloads)`` per round, oldest first.
        self._rounds: list[tuple[str, int, int, list[Any] | None]] = []

    def append(
        self,
        op: str,
        timestep: int,
        superstep: int,
        payloads: list[Any] | None,
    ) -> None:
        """Journal one round, pre-execution.

        ``payloads`` is indexed by partition (``None`` journals a ``None``
        payload for everyone, e.g. end-of-timestep rounds).
        """
        self._rounds.append((op, timestep, superstep, payloads))

    def entries_for(self, partition: int) -> list[JournalEntry]:
        """The partition's post-checkpoint rounds, oldest first (a new list)."""
        return [
            JournalEntry(op, t, s, None if payloads is None else payloads[partition])
            for op, t, s, payloads in self._rounds
        ]

    def truncate(self) -> None:
        """A durable checkpoint landed: it is the new replay base."""
        self._rounds.clear()

    def __len__(self) -> int:
        """Journaled rounds currently held."""
        return len(self._rounds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FrameJournal({self.num_partitions} partitions, {len(self)} rounds held)"
