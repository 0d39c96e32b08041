"""Run provenance: who/what/when stamps shared by manifests and exports.

Both a recorded run's manifest (``run --stream``) and the ``run --export``
JSON summary stamp their output with the same envelope so downstream tooling
can join artifacts from the same code state: schema version, wall-clock
timestamp, the repository's ``git describe``, and the caller's run
arguments (algorithm, graph, executor kind, scales, seeds).
"""

from __future__ import annotations

import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

__all__ = ["PROVENANCE_SCHEMA_VERSION", "git_describe", "run_provenance"]

#: Version of the provenance envelope (bump on field changes).
PROVENANCE_SCHEMA_VERSION = 1


def git_describe() -> str | None:
    """``git describe --always --dirty`` of this checkout, or None.

    Returns None when the package is not running from a git checkout (an
    installed wheel) or git is unavailable — provenance degrades, never
    fails.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    describe = out.stdout.strip()
    return describe if out.returncode == 0 and describe else None


def run_provenance(**fields: Any) -> dict[str, Any]:
    """The shared provenance envelope, plus caller-supplied run fields."""
    return {
        "schema_version": PROVENANCE_SCHEMA_VERSION,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_describe": git_describe(),
        **fields,
    }
