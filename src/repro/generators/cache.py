"""Content-keyed on-disk dataset cache.

Building the paper's datasets at the 2 M-vertex regime costs seconds even
vectorized; re-partitioning them costs more.  Both are pure functions of
their parameters, so the results are cached on disk keyed by **content**:
a SHA-256 over the canonicalized parameter mapping, the entry kind, and
:data:`INGEST_CODE_VERSION`.  Change any parameter, the generator/
partitioner code version, or the entry kind and the key changes — stale
entries are never returned, they are simply never looked up again.

Entries are pickles (protocol 5, which keeps numpy arrays as out-of-band
buffer-sized frames) written atomically: serialize to a unique temp file in
the cache directory, then ``os.replace`` onto the final name.  Readers
therefore never observe a torn entry, and concurrent builders of the same
key race benignly (last rename wins, both contents identical).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable

__all__ = ["DatasetCache", "INGEST_CODE_VERSION", "content_key"]

#: Bump whenever generator or partitioner output changes for identical
#: parameters (new algorithms, changed RNG consumption, schema changes);
#: old cache entries become unreachable rather than wrong.
# v3: Subgraph (pickled in partition entries) lost a slot.  v4: refinement
# became Jet hill-climbing with one piece per partition; a partition entry is
# keyed by the partitioner's class and scalar config, not its algorithm.  v5:
# a tweet column is a Ragged of int64 arrays, not an object column of tuples.
INGEST_CODE_VERSION = 5


def _canonical(value: Any) -> Any:
    """Reduce a parameter value to a JSON-stable form."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, bool, type(None))):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, bytes):
        return value.hex()
    raise TypeError(f"unsupported cache parameter type: {type(value).__name__}")


def content_key(kind: str, params: dict[str, Any]) -> str:
    """Stable hex digest identifying one cache entry's full provenance."""
    payload = json.dumps(
        {"kind": kind, "version": INGEST_CODE_VERSION, "params": _canonical(params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class DatasetCache:
    """Directory of content-keyed pickled ingest artifacts.

    ``hits`` / ``misses`` count lookups since construction (the cache-hit
    speedup assertions in CI and the ingest bench read them).
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, kind: str, params: dict[str, Any]) -> Path:
        return self.root / f"{kind}-{content_key(kind, params)[:32]}.pkl"

    def load(self, kind: str, params: dict[str, Any]) -> Any | None:
        """Return the cached value, or None on a miss (or unreadable entry)."""
        path = self.path_for(kind, params)
        try:
            with path.open("rb") as fh:
                value = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError):
            self.misses += 1
            return None
        self.hits += 1
        return value

    def store(self, kind: str, params: dict[str, Any], value: Any) -> Path:
        """Atomically persist ``value`` under its content key."""
        path = self.path_for(kind, params)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=5)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def get_or_build(self, kind: str, params: dict[str, Any], build: Callable[[], Any]) -> Any:
        """Load ``kind``/``params``, building and storing on a miss."""
        value = self.load(kind, params)
        if value is None:
            value = build()
            self.store(kind, params, value)
        return value
