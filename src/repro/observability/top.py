"""``tibsp top`` — a zero-dependency TTY dashboard over live snapshots.

Tails the ``live.jsonl`` the :class:`JsonlSnapshotExporter` writes and
renders the latest snapshot as a full-screen text panel: run progress,
per-partition utilization bars, message/cache rates, and recent health
events.  Pure rendering is separated from the terminal loop so tests can
assert on :func:`render_top` output directly.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any

__all__ = ["latest_snapshot", "render_top", "run_top"]

_BAR_FULL = "█"  # █
_BAR_EMPTY = "░"  # ░


def latest_snapshot(path: str | os.PathLike) -> dict[str, Any] | None:
    """Read the last complete snapshot line from a ``live.jsonl`` file."""
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            # Snapshots are small; reading a 64 KiB tail always covers the
            # last record without scanning a long-running file front-to-back.
            fh.seek(max(0, size - 65536))
            tail = fh.read().decode("utf-8", errors="replace")
    except OSError:
        return None
    for line in reversed(tail.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn final line of a live file
        if isinstance(record, dict) and record.get("kind") == "live_snapshot":
            return record
    return None


def _bar(fraction: float, width: int) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = round(fraction * width)
    return _BAR_FULL * filled + _BAR_EMPTY * (width - filled)


def _rate(n: float, seconds: float) -> str:
    if seconds <= 0:
        return "-"
    rate = n / seconds
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M/s"
    if rate >= 1e3:
        return f"{rate / 1e3:.1f}k/s"
    return f"{rate:.1f}/s"


def render_top(snapshot: dict[str, Any], *, width: int = 80) -> str:
    """Render one snapshot as a text panel (no terminal control codes)."""
    totals = snapshot.get("totals", {})
    progress = snapshot.get("progress", {})
    health = snapshot.get("health", {})
    wall = snapshot.get("wall_s", 0.0)
    lines: list[str] = []
    done = progress.get("timesteps_done", 0)
    planned = progress.get("num_timesteps", 0)
    lines.append(
        f"tibsp top — snapshot #{snapshot.get('seq', 0)}  wall {wall:7.2f}s  "
        f"phase {snapshot.get('phase', '?')} t={snapshot.get('timestep', '?')} "
        f"s={snapshot.get('superstep', '?')}"
    )
    if planned:
        frac = done / planned
        lines.append(
            f"progress  [{_bar(frac, max(10, width - 40))}] "
            f"{done}/{planned} timesteps, {progress.get('supersteps', 0)} supersteps"
        )
    else:
        lines.append(
            f"progress  {done} timesteps, {progress.get('supersteps', 0)} supersteps"
        )
    messages = totals.get("messages", 0)
    lines.append(
        f"messages  {messages}  ({_rate(messages, wall)}; "
        f"remote {totals.get('remote_messages', 0)}, "
        f"cut ratio {totals.get('cut_traffic_ratio', 0.0):.3f})"
    )
    lines.append(
        f"load      blocked {totals.get('load_blocked_s', 0.0):.3f}s  "
        f"hidden {totals.get('load_hidden_s', 0.0):.3f}s"
    )
    sources = snapshot.get("sources", {})
    if sources:
        hits = sources.get("prefetch_hits", 0)
        misses = sources.get("prefetch_misses", 0)
        total = hits + misses
        hit_pct = f"{100.0 * hits / total:.0f}%" if total else "-"
        lines.append(
            f"cache     hits {hits}  misses {misses}  hit-rate {hit_pct}  "
            f"resident {sources.get('resident_bytes', 0)} B"
        )
    if totals.get("checkpoints") or totals.get("retries"):
        lines.append(
            f"faults    checkpoints {totals.get('checkpoints', 0)} "
            f"({totals.get('checkpoint_s', 0.0):.3f}s)  "
            f"retries {totals.get('retries', 0)}  "
            f"recovery {totals.get('recovery_s', 0.0):.3f}s"
        )
    lines.append("")
    # Row prefix is ~39 columns; keep room for the " *straggler" suffix too.
    bar_width = max(10, width - 52)
    stragglers = set(health.get("stragglers", []))
    lines.append(f"{'part':>4}  {'util':>5}  {'busy':>9}  {'msgs':>9}  bar")
    for part in snapshot.get("partitions", []):
        p = part["partition"]
        util = part.get("utilization", 0.0)
        mark = " *straggler" if p in stragglers else ""
        lines.append(
            f"{p:>4}  {100 * util:4.0f}%  {part.get('busy_s', 0.0):8.3f}s  "
            f"{part.get('messages', 0):>9}  [{_bar(util, bar_width)}]{mark}"
        )
    recent = health.get("recent", [])
    if health.get("stalled"):
        lines.append("")
        lines.append("!! STALLED: in-flight round exceeds the stall threshold")
    if recent:
        lines.append("")
        lines.append("recent events")
        for event in recent[-5:]:
            part = event.get("partition")
            where = f"p{part}" if part is not None else "-"
            lines.append(
                f"  [{event.get('wall_s', 0.0):7.2f}s] {event.get('kind', '?'):<9} "
                f"{where:>4}  {event.get('detail', '')}"
            )
    return "\n".join(line[:width] for line in lines)


def run_top(
    directory: str | os.PathLike,
    *,
    once: bool = False,
    interval_s: float = 1.0,
    out=None,
) -> int:
    """Follow ``<directory>/live.jsonl``, redrawing until interrupted.

    Returns a process exit code (1 when no snapshot ever appears in
    ``--once`` mode).
    """
    out = out or sys.stdout
    path = os.path.join(os.fspath(directory), "live.jsonl")
    last_seq = None
    try:
        while True:
            snapshot = latest_snapshot(path)
            if snapshot is None:
                if once:
                    print(f"no live snapshots at {path}", file=out)
                    return 1
            elif snapshot.get("seq") != last_seq:
                last_seq = snapshot.get("seq")
                if out.isatty():  # pragma: no cover - interactive only
                    out.write("\x1b[2J\x1b[H")
                out.write(render_top(snapshot) + "\n")
                out.flush()
            if once:
                return 0
            time.sleep(max(0.1, interval_s))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
