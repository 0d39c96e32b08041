"""GoFS-style checkpoint store: durable snapshots at the end of a timestep.

Layout of a checkpoint directory rooted at ``dir/``::

    dir/ckpt-000003-t4/manifest.json  — next timestep, signature, file hashes
    dir/ckpt-000003-t4/driver.bin     — driver blob (frames, outputs, metrics)
    dir/ckpt-000003-t4/part-0.bin     — one host-state blob per partition
    dir/ckpt-000003-t4/part-1.bin

A checkpoint is *complete* only once its ``manifest.json`` exists: blobs
are written first, then the manifest (with each blob's byte count and
SHA-256), atomically (write-temp + rename).  The latest checkpoint is the
complete one with the highest sequence number.  A crash mid-write therefore
never produces a checkpoint that :meth:`CheckpointManager.load` would
accept — it either verifies every hash or raises :class:`CheckpointCorrupt`.

A checkpoint closes a timestep: ``t<T>`` and the manifest's ``timestep`` are
the *next* timestep to execute.  The manifest also carries the writing run's
*signature*; :meth:`CheckpointManager.load` refuses a checkpoint whose
signature disagrees with its manager's.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..storage.serde import read_blob, write_blob

__all__ = ["CheckpointConfig", "CheckpointCorrupt", "CheckpointInfo", "CheckpointManager"]

#: 2: a checkpoint closes a timestep.  A v1 manifest may name a point inside
#: one (``superstep`` set), which this engine cannot re-enter, so it is refused.
#: 3: the driver blob's collector carries the run's failure records; a v2
#: collector has none, and is refused rather than half-read.
#: 4: run records and messages pickle as slotted values and tuples; a v3
#: blob's pickled dataclasses do not load into them, so it is refused.
CHECKPOINT_FORMAT_VERSION = 4
_MANIFEST = "manifest.json"


class CheckpointCorrupt(RuntimeError):
    """A checkpoint failed integrity validation (missing file / bad hash)."""


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpointing knobs for :class:`~repro.core.engine.EngineConfig`.

    Attributes
    ----------
    dir:
        Checkpoint directory (created on first write).
    every:
        Write a checkpoint after every ``every`` completed timesteps.  A
        failure inside a timestep is repaired by replaying the journaled
        rounds since the last one.
    retain:
        Keep at most this many complete checkpoints (older ones pruned).
    """

    dir: str | Path = "checkpoints"
    every: int = 1
    retain: int = 2

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("checkpoint every must be >= 1")
        if self.retain < 1:
            raise ValueError("retain must be >= 1")


@dataclass(frozen=True)
class CheckpointInfo:
    """What one :meth:`CheckpointManager.write` produced."""

    path: Path
    seq: int
    timestep: int
    nbytes: int
    seconds: float  #: measured write wall time


@dataclass
class _LoadedCheckpoint:
    """A verified checkpoint read back from disk."""

    meta: dict[str, Any]
    driver: Any
    parts: list[Any] = field(default_factory=list)

    @property
    def timestep(self) -> int:
        return int(self.meta["timestep"])


class CheckpointManager:
    """Writes, lists, verifies, and prunes checkpoints under one directory.

    ``signature`` describes the run the checkpoints belong to (for the
    engine: partition count, subgraph count, pattern).  It is stamped on
    every checkpoint written, and :meth:`load` refuses a checkpoint that
    disagrees with it on any key both carry.
    """

    def __init__(
        self, root: str | Path, *, retain: int = 2, signature: dict[str, Any] | None = None
    ) -> None:
        self.root = Path(root)
        self.retain = int(retain)
        self.signature = dict(signature or {})
        self._seq = self._next_seq()

    def _next_seq(self) -> int:
        if not self.root.is_dir():
            return 0
        seqs = [
            int(p.name.split("-")[1])
            for p in self.root.iterdir()
            if p.is_dir() and p.name.startswith("ckpt-")
        ]
        return max(seqs, default=-1) + 1

    # -- write -------------------------------------------------------------------------

    def write(self, timestep: int, driver_blob: Any, part_blobs: Sequence[Any]) -> CheckpointInfo:
        """Write one complete checkpoint; returns its :class:`CheckpointInfo`.

        ``timestep`` is the next timestep the restored run executes.
        """
        import time

        start = time.perf_counter()
        seq = self._seq
        self._seq += 1
        name = f"ckpt-{seq:06d}-t{timestep}"
        ckpt_dir = self.root / name
        ckpt_dir.mkdir(parents=True, exist_ok=True)

        files: dict[str, dict[str, Any]] = {}
        total = 0
        nbytes, digest = write_blob(ckpt_dir / "driver.bin", driver_blob)
        files["driver.bin"] = {"nbytes": nbytes, "sha256": digest}
        total += nbytes
        for p, blob in enumerate(part_blobs):
            nbytes, digest = write_blob(ckpt_dir / f"part-{p}.bin", blob)
            files[f"part-{p}.bin"] = {"nbytes": nbytes, "sha256": digest}
            total += nbytes

        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "seq": seq,
            "timestep": int(timestep),
            "num_partitions": len(part_blobs),
            "signature": self.signature,
            "files": files,
        }
        # The manifest lands by rename: a reader sees a complete checkpoint or none.
        tmp = ckpt_dir / (_MANIFEST + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(tmp, ckpt_dir / _MANIFEST)
        self._prune()
        return CheckpointInfo(ckpt_dir, seq, int(timestep), total, time.perf_counter() - start)

    def _complete(self) -> list[Path]:
        """The complete checkpoints, oldest first."""
        return sorted(
            (p for p in (self.root.iterdir() if self.root.is_dir() else ())
             if p.is_dir() and (p / _MANIFEST).is_file()),
            key=lambda p: int(p.name.split("-")[1]),
        )

    def _prune(self) -> None:
        import shutil

        for old in self._complete()[: -self.retain]:
            shutil.rmtree(old, ignore_errors=True)

    # -- read --------------------------------------------------------------------------

    def latest_name(self) -> str | None:
        """Name of the newest complete checkpoint, or ``None``."""
        complete = self._complete()
        return complete[-1].name if complete else None

    def load(
        self, name: str | None = None, partitions: Sequence[int] | None = None
    ) -> _LoadedCheckpoint:
        """Load and verify a checkpoint (the latest when ``name`` is None).

        A checkpoint of another format version is :class:`CheckpointCorrupt`;
        one whose signature disagrees with this manager's is a ``ValueError``.
        ``partitions`` restricts which per-partition blobs are read and
        verified — surgical recovery restores one host without paying for
        (or requiring the integrity of) every other partition's blob.  The
        returned ``parts`` list keeps positional indexing: partitions not
        requested hold ``None``.
        """
        name = name or self.latest_name()
        if name is None:
            raise FileNotFoundError(f"no complete checkpoint under {self.root}")
        ckpt_dir = self.root / name
        manifest_path = ckpt_dir / _MANIFEST
        if not manifest_path.is_file():
            raise CheckpointCorrupt(f"checkpoint {ckpt_dir} has no manifest")
        try:
            meta = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointCorrupt(f"checkpoint {ckpt_dir} has an unreadable manifest: {exc}") from exc
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointCorrupt(
                f"checkpoint {ckpt_dir}: unsupported format version "
                f"{meta.get('format_version')!r} (this engine reads {CHECKPOINT_FORMAT_VERSION})"
            )
        theirs = meta.get("signature") or {}
        for key, want in self.signature.items():
            if key in theirs and theirs[key] != want:
                raise ValueError(
                    f"checkpoint does not match this run: {key} is {theirs[key]!r} "
                    f"in the checkpoint but {want!r} here"
                )
        num_parts = int(meta["num_partitions"])
        wanted = range(num_parts) if partitions is None else sorted(set(partitions))
        if partitions is not None and any(p < 0 or p >= num_parts for p in wanted):
            raise ValueError(
                f"checkpoint {ckpt_dir} holds partitions 0..{num_parts - 1}, "
                f"requested {sorted(set(partitions))}"
            )
        try:
            driver = read_blob(
                ckpt_dir / "driver.bin", expected_sha256=meta["files"]["driver.bin"]["sha256"]
            )
            parts: list[Any] = [None] * num_parts
            for p in wanted:
                parts[p] = read_blob(
                    ckpt_dir / f"part-{p}.bin",
                    expected_sha256=meta["files"][f"part-{p}.bin"]["sha256"],
                )
        except (OSError, KeyError, ValueError) as exc:
            raise CheckpointCorrupt(f"checkpoint {ckpt_dir} failed validation: {exc}") from exc
        return _LoadedCheckpoint(meta, driver, parts)
