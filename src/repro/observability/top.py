"""``tibsp top`` — the live view is a reader of the streamed event log.

A watched run streams its event log (``tibsp run --stream DIR``, i.e.
``EngineConfig(tracing=TraceConfig(stream_dir=DIR))``), flushed as each
round lands.  This module tails ``DIR/events.jsonl`` and folds its
complete lines into a :class:`RunFold`: the run's records through the
collector's own fold (:meth:`~repro.runtime.metrics.MetricsCollector.fold_events`,
what ``from_events`` does), so the panel's totals cannot disagree with the
run's; and the trace-only lines for what the collector keeps no table of —
the plan (``run_begin``), quarantined partitions, the GoFS packs loaded and
the end of the run (``run_end``).

Stragglers and stalls are the reader's findings, made when it renders:

* a **straggler** is a partition whose busy seconds in the last timestep
  exceed :data:`STRAGGLER_FACTOR` × the median and the median by at least
  :data:`STRAGGLER_MIN_S`;
* a **stall** is a log older than ``stall_after_s`` whose run has not
  ended: the round after the last one that landed is still open.  The
  suspect is the partition heard from longest ago; a quarantined one is
  silent by decision and never named.

The log keeps the run's clock (``ts_us`` from its trace epoch); the file's
modification time anchors its last line to the wall clock, so a
partition's age is the log's age plus how far its last reply lies before
the log's last line.  :func:`render_top` is a pure function of a fold and
``now``.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Any

from ..runtime.metrics import PHASE_COMPUTE, MetricsCollector
from .events import tail_event_log

__all__ = ["RunFold", "render_top", "run_top"]

#: Straggler rule: busy > FACTOR × median and busy − median > MIN_S.
STRAGGLER_FACTOR = 2.0
STRAGGLER_MIN_S = 0.05
#: A log older than this (seconds) whose run has not ended is a stall.
STALL_AFTER_S = 5.0

#: A host's reply to a round: what shows a partition alive.
_REPLY_KINDS = ("step", "instance_load")

_BAR_FULL = "█"
_BAR_EMPTY = "░"


class RunFold:
    """What a run's event log says so far, folded line by line."""

    def __init__(self) -> None:
        #: The ``run_begin`` line, then the run's collector folded so far.
        self.plan: dict[str, Any] | None = None
        self.metrics: MetricsCollector | None = None
        #: The ``run_end`` line, once the driver has said it.
        self.ended: dict[str, Any] | None = None
        self.records = 0
        self.last_ts_us = 0.0
        #: ``(phase, timestep, superstep)`` of the last round that landed.
        self.last_round: tuple[str, int, int] | None = None
        #: partition -> ``ts_us`` of its last own reply.
        self.heard_us: dict[int, float] = {}
        self.quarantined: set[int] = set()
        #: ``slice_load`` lines: GoFS packs read.
        self.packs_loaded = 0
        #: Wall-clock modification time of the log when it was last read.
        self.mtime = 0.0
        self._offset = 0

    def feed(self, records: list[dict[str, Any]]) -> None:
        """Fold event-log lines, in log order."""
        for record in records:
            self._note(record)
        if self.metrics is not None:
            self.metrics.fold_events(records)

    def read(self, path: str | os.PathLike) -> int:
        """Fold the complete lines appended to ``path`` since the last read;
        returns how many there were."""
        self.mtime = os.stat(path).st_mtime
        records, self._offset = tail_event_log(path, self._offset)
        self.feed(records)
        return len(records)

    def _note(self, record: dict[str, Any]) -> None:
        kind = record["kind"]
        if self.plan is None:
            if kind != "run_begin":
                raise ValueError(f"not a run's event log: it starts with {kind!r}, not 'run_begin'")
            self.plan = record
            self.metrics = MetricsCollector(record["num_partitions"], barrier_s=record["barrier_s"])
        self.records += 1
        self.last_ts_us = record["ts_us"]
        if kind in _REPLY_KINDS and record["partition"] not in self.quarantined:
            self.heard_us[record["partition"]] = record["ts_us"]
        if kind == "step":
            self.last_round = (record["phase"], record["timestep"], record["superstep"])
        elif kind == "instance_load":
            self.last_round = ("begin", record["timestep"], -1)
        elif kind == "worker_quarantined":
            self.quarantined.add(record["partition"])
        elif kind == "run_end":
            self.ended = record
        elif kind == "slice_load":
            self.packs_loaded += 1


def _stragglers(metrics: MetricsCollector) -> set[int]:
    """Partitions far busier than the median in the last timestep."""
    n = metrics.num_partitions
    steps = [r for r in metrics.step_records if r.phase == PHASE_COMPUTE]
    if n < 2 or not steps:
        return set()
    last = steps[-1].timestep
    busy = [0.0] * n
    for r in steps:
        if r.timestep == last:
            busy[r.partition] += r.busy_s
    med = sorted(busy)[n // 2]
    return {
        p for p in range(n)
        if busy[p] > STRAGGLER_FACTOR * med and busy[p] - med > STRAGGLER_MIN_S
    }


def _bar(fraction: float, width: int) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = round(fraction * width)
    return _BAR_FULL * filled + _BAR_EMPTY * (width - filled)


def _round_name(rnd: tuple[str, int, int] | None) -> str:
    if rnd is None:
        return "the first round"
    phase, t, s = rnd
    return f"begin t={t}" if phase == "begin" else f"{phase} t={t} s={s}"


def render_top(
    fold: RunFold, *, now: float, stall_after_s: float = STALL_AFTER_S, width: int = 80
) -> str:
    """Render a fold that has read its ``run_begin`` line as a text panel at
    wall-clock ``now`` (no control codes)."""
    plan, m = fold.plan, fold.metrics
    n = m.num_partitions
    totals = m.summary()
    log_age = now - fold.mtime

    def age(ts_us: float) -> float:
        return log_age + (fold.last_ts_us - ts_us) / 1e6

    lines = [
        f"tibsp top — {plan['pattern'].lower()} on {plan['executor']} ×{n}   "
        f"{fold.records} records, run {fold.last_ts_us / 1e6:.2f}s"
    ]
    planned = plan["stop"] - plan["start"]
    done = totals["timesteps"]
    lines.append(
        f"progress  [{_bar(done / planned if planned else 1.0, max(10, width - 50))}] "
        f"{done}/{planned} timesteps, {totals['supersteps']} supersteps"
    )
    lines.append(
        f"messages  {totals['messages']}  (remote {totals['remote_messages']}, "
        f"cut ratio {totals['cut_traffic_ratio']:.3f})"
    )
    lines.append(f"load      blocked {totals['load_blocked_s']:.3f}s")
    if fold.packs_loaded:
        lines.append(f"cache     packs {fold.packs_loaded}")
    if totals["checkpoints"] or totals["retries"] or fold.quarantined:
        lines.append(
            f"faults    checkpoints {totals['checkpoints']} ({totals['checkpoint_s']:.3f}s)  "
            f"retries {totals['retries']}  recovery {totals['recovery_s']:.3f}s"
            + (f"  quarantined {sorted(fold.quarantined)}" if fold.quarantined else "")
        )

    busy, compute, send, msgs = [0.0] * n, [0.0] * n, [0.0] * n, [0] * n
    for r in m.step_records:
        busy[r.partition] += r.busy_s
        compute[r.partition] += r.compute_s
        send[r.partition] += r.send_s
        msgs[r.partition] += r.messages_sent
    peak = max(busy, default=0.0)
    stragglers = _stragglers(m)
    lines.append("")
    lines.append(
        f"{'part':>4} {'util':>5} {'busy':>8} {'compute':>8} {'send':>8} {'msgs':>7} {'age':>8} bar"
    )
    # A row's cells take 55 columns; leave room for " *straggler".
    bar_width = max(4, width - 68)
    for p in range(n):
        util = busy[p] / peak if peak > 0 else 0.0
        heard = fold.heard_us.get(p)
        seen = f"{age(heard):7.2f}s" if heard is not None else f"{'-':>8}"
        if p in fold.quarantined:
            tail = "silent (quarantined)"
        else:
            tail = f"[{_bar(util, bar_width)}]" + (" *straggler" if p in stragglers else "")
        lines.append(
            f"{p:>4} {100 * util:4.0f}% {busy[p]:7.3f}s {compute[p]:7.3f}s {send[p]:7.3f}s "
            f"{msgs[p]:>7} {seen} {tail}"
        )

    lines.append("")
    if fold.ended is not None:
        lines.append(f"run ended after {fold.ended['timesteps_executed']} timesteps")
    elif log_age > stall_after_s:
        live = [p for p in range(n) if p not in fold.quarantined]
        suspect = min(live, key=lambda p: fold.heard_us.get(p, float("-inf")), default=None)
        lines.append(
            f"!! STALLED: the round after {_round_name(fold.last_round)} open for "
            f"{log_age:.1f}s (threshold {stall_after_s:g}s)"
        )
        lines.append(
            f"   partition {suspect} silent longest" if suspect is not None
            else "   every partition is quarantined"
        )
    else:
        lines.append(f"running   last landed: {_round_name(fold.last_round)}, {log_age:.1f}s ago")
    return "\n".join(line[:width] for line in lines)


def run_top(
    directory: str | os.PathLike,
    *,
    once: bool = False,
    interval_s: float = 1.0,
    stall_after_s: float = STALL_AFTER_S,
    out=None,
) -> int:
    """Follow ``<directory>/events.jsonl``, redrawing until the run ends or
    the reader is interrupted.

    Returns a process exit code: 1 when there is no run log to read in
    ``--once`` mode, or the file is not one.
    """
    out = out or sys.stdout
    path = Path(directory) / "events.jsonl"
    fold = RunFold()
    try:
        while True:
            try:
                new = fold.read(path)
            except FileNotFoundError:
                new = 0
            except ValueError as exc:
                print(f"error: {path}: {exc}", file=out)
                return 1
            if fold.plan is None:
                if once:
                    print(f"no run log at {path}", file=out)
                    return 1
            elif new or once or out.isatty():
                if out.isatty():  # pragma: no cover - interactive only
                    out.write("\x1b[2J\x1b[H")
                out.write(render_top(fold, now=time.time(), stall_after_s=stall_after_s) + "\n")
                out.flush()
            if once or fold.ended is not None:
                return 0
            time.sleep(max(0.1, interval_s))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
