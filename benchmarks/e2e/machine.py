"""What the machine does to a timing, measured beside every timing the benchmark gates.

The benchmark runs on a few vCPUs of a shared host.  The host's speed moves
in phases of seconds to minutes (the same operation on the same inputs read
0.116 s for a minute and 0.154 s for the two minutes before, with nothing
else in the guest), and in bad minutes the hypervisor steals a third of the
guest's CPU time.  Ten runs of the same code then spread by more than the
regression bound, and a phase outlasts a run, so longer runs do not help.

Two corrections, neither of which looks at the program under test:

*Speed.*  A timing is taken next to a burst of fixed work (NumPy gather,
add and sort over 8 MB arrays, the memory-bound array work the engine's time
goes to) and divided by the burst's slowdown, its seconds over
``REFERENCE_S``.  That makes it seconds at the reference speed.

*Stolen time.*  ``/proc/stat`` says how long the guest's CPUs were kept
waiting during a timing; ``quiet_seconds`` fits what a stolen second costs
and takes it out.

``README.md`` beside this file has the recordings these were chosen on.
What they cannot remove is noise that neither the burst nor the steal
counter sees, above all the page faults of writing a fresh store.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Median seconds of one burst on the machine the benchmark was defined on,
#: in a quiet phase.  Only a scale: it makes corrected timings read as
#: seconds of that machine.  Changing it moves every gated timing alike.
REFERENCE_S = 0.0260

#: Stolen time is counted in ticks of 10 ms and over all CPUs, so it can
#: exceed a short timing; no timing is corrected to less than this share.
QUIET_FLOOR = 0.1

WARM_UP_S = 0.4  #: bursts before a probe's first reading
_SLOTS = 1 << 20


def stolen_seconds() -> float:
    """Seconds the hypervisor kept this guest's CPUs waiting so far, summed over the CPUs.

    The ``steal`` column of ``/proc/stat``, which counts in ticks of 10 ms;
    0 where the platform does not report it.
    """
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def quiet_seconds(
    groups: list[list[tuple[float, float, float]]], slope_range: tuple[float, float]
) -> list[float]:
    """Per group of timings, the seconds one takes on a quiet machine at the reference speed.

    A timing is ``(seconds, stolen, slowdown)``: what the clock read, how
    much of it the hypervisor stole, and the speed probe beside it.  The
    model is ``seconds / slowdown = quiet + slope * stolen / slowdown``, with
    one ``quiet`` per group (an input set's operations) and one ``slope``
    for the run, fitted by least squares over all of them and held inside
    ``slope_range``.  The answer for a group is the median of what its
    timings leave for ``quiet``, each at least ``QUIET_FLOOR`` of the timing.
    """
    y = [np.array([sec / slow for sec, _stolen, slow in g]) for g in groups]
    x = [np.array([stolen / slow for _sec, stolen, slow in g]) for g in groups]
    x_centred = np.concatenate([v - v.mean() for v in x])
    y_centred = np.concatenate([v - v.mean() for v in y])
    spread = float(x_centred @ x_centred)
    slope = float(x_centred @ y_centred) / spread if spread > 0.0 else 0.0
    slope = min(max(slope, slope_range[0]), slope_range[1])
    return [float(np.median(np.maximum(yg - slope * xg, QUIET_FLOOR * yg))) for yg, xg in zip(y, x)]


class SpeedProbe:
    """Runs bursts and reports how much slower than the reference they were."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(_SLOTS)
        self._index = rng.integers(0, _SLOTS, _SLOTS)
        self._out = np.empty(_SLOTS)
        self.slowdown(WARM_UP_S)  # the first bursts of a process read a third slow

    def _burst(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            np.take(self._values, self._index, out=self._out)
            np.add(self._values, self._out, out=self._out)
            self._out.sort()
        return time.perf_counter() - t0

    def slowdown(self, budget_s: float = 0.0) -> float:
        """Median burst over the reference; bursts until ``budget_s`` is spent, at least one."""
        bursts = [self._burst()]
        spent = bursts[0]
        while spent + bursts[-1] <= budget_s:
            bursts.append(self._burst())
            spent += bursts[-1]
        return statistics.median(bursts) / REFERENCE_S
