"""Elastic VM scaling analysis (paper Section IV-D's closing suggestion).

    "Also, we can use elastic scaling on Clouds for long-running time-series
    algorithms jobs by starting VM partitions on-demand when they are
    touched, or spinning down VMs that are idle for long."

Post-processes a finished run's metrics into a per-(timestep, partition)
activity grid and simulates an on-demand VM policy against it:

* a VM *spins down* after ``idle_timesteps`` consecutive timesteps with no
  compute on its partition;
* it *spins up* again one timestep before its partition next computes
  (prefetch; the policy is evaluated offline so it has hindsight — an upper
  bound on what an online predictor could save), paying ``spinup_penalty_s``
  added to that timestep's wall;
* billing is per VM-timestep while powered on.

The result quantifies the trade the paper gestures at: TDSP's traveling
frontier leaves partitions idle for long stretches (Fig 7a), so on-demand
VMs save a large share of the bill at a small makespan penalty, while
MEME's uniform activity saves little.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.results import AppResult

__all__ = ["ElasticPolicy", "ElasticOutcome", "activity_grid", "simulate_elastic"]


@dataclass(frozen=True)
class ElasticPolicy:
    """On-demand VM policy parameters."""

    idle_timesteps: int = 3  #: consecutive idle timesteps before spin-down
    spinup_penalty_s: float = 30.0  #: VM start latency (paper-era EC2: ~minutes; conservative)
    prefetch: int = 1  #: timesteps of lead time when spinning back up

    def __post_init__(self) -> None:
        if self.idle_timesteps < 1:
            raise ValueError("idle_timesteps must be >= 1")
        if self.spinup_penalty_s < 0:
            raise ValueError("spinup_penalty_s must be non-negative")
        if self.prefetch < 0:
            raise ValueError("prefetch must be non-negative")


@dataclass(frozen=True)
class ElasticOutcome:
    """What the policy would have done for one finished run."""

    powered: np.ndarray  #: (T, P) bool — VM powered on during timestep
    vm_timesteps_static: int  #: bill without elasticity (T × P)
    vm_timesteps_elastic: int  #: bill with the policy
    spinups: int  #: spin-up events (every first boot — even at t=0 — and wake-ups after idling); matches the tracer's ``vm_spinup`` count
    #: Spin-up latency added to the makespan *relative to a static,
    #: always-on cluster*.  Boots at t=0 are excluded: the static baseline
    #: pays the same initial start latency, so only delayed first boots and
    #: mid-run wake-ups cost extra wall.
    added_wall_s: float

    @property
    def savings_fraction(self) -> float:
        """Fraction of the VM bill saved by the policy."""
        if self.vm_timesteps_static == 0:
            return 0.0
        return 1.0 - self.vm_timesteps_elastic / self.vm_timesteps_static


def activity_grid(result: AppResult, *, rel_threshold: float = 0.05) -> np.ndarray:
    """``A[t, p]`` = True when partition ``p`` did *meaningful* work at ``t``.

    The TI-BSP engine invokes every subgraph at superstep 0 of every
    timestep, so strictly-positive compute time does not distinguish a
    partition crunching the frontier from one that merely checked an empty
    root set.  A partition counts as active when its compute time within
    the timestep is at least ``rel_threshold`` of the busiest partition's —
    Fig 7's notion of partitions "active at a given timestep" vs idling.
    """
    if result.metrics is None:
        raise ValueError("result has no metrics")
    if not 0.0 <= rel_threshold <= 1.0:
        raise ValueError("rel_threshold must be in [0, 1]")
    m = result.metrics
    timesteps = sorted(m.supersteps_per_timestep)
    index = {t: i for i, t in enumerate(timesteps)}
    compute = np.zeros((len(timesteps), m.num_partitions))
    for r in m.step_records:
        if r.timestep in index:
            compute[index[r.timestep], r.partition] += r.compute_s
    peak = compute.max(axis=1, keepdims=True)
    return compute >= np.maximum(rel_threshold * peak, 1e-12)


def simulate_elastic(
    result: AppResult,
    policy: ElasticPolicy | None = None,
    *,
    rel_threshold: float = 0.05,
    tracer=None,
) -> ElasticOutcome:
    """Replay a run's activity grid under an on-demand VM policy.

    When ``tracer`` is given, every simulated power transition is emitted
    as a ``vm_spinup`` / ``vm_spindown`` event (partition + timestep), so
    the elastic schedule shows up alongside the run's trace.
    """
    policy = policy or ElasticPolicy()
    grid = activity_grid(result, rel_threshold=rel_threshold)
    T, P = grid.shape
    powered = np.zeros((T, P), dtype=bool)
    spinups = 0
    boots_at_t0 = 0
    for p in range(P):
        active_ts = np.nonzero(grid[:, p])[0]
        if len(active_ts) == 0:
            continue  # never touched: never booted (paper: start on demand)
        # Start on demand (the paper's wording): first boot happens
        # `prefetch` timesteps before the partition is first touched.
        first = int(active_ts[0])
        boot = max(0, first - policy.prefetch)
        powered[boot : first + 1, p] = True
        # The first boot is a spin-up even when it lands at t=0: the tracer
        # logs it as vm_spinup and the spinups counter must agree with the
        # trace.  But a t=0 boot adds no wall over the static baseline —
        # an always-on cluster pays the same initial start latency — so it
        # is excluded from added_wall_s below.
        spinups += 1
        if boot == 0:
            boots_at_t0 += 1
        on = True
        idle = 0
        for t in range(first + 1, T):
            if grid[t, p]:
                idle = 0
                if not on:
                    # Spin up `prefetch` timesteps early (hindsight).
                    lead = max(0, t - policy.prefetch)
                    powered[lead : t + 1, p] = True
                    on = True
                    spinups += 1
                else:
                    powered[t, p] = True
            else:
                idle += 1
                if on:
                    # Billed through the idle-threshold timestep; off after.
                    powered[t, p] = True
                    if idle >= policy.idle_timesteps:
                        on = False
    if tracer is not None:
        # Derive power transitions from the grid edges so every boot and
        # shutdown (including the initial on-demand boot) is logged once.
        for p in range(P):
            prev = False
            for t in range(T):
                now = bool(powered[t, p])
                if now and not prev:
                    tracer.event("vm_spinup", partition=p, timestep=t)
                elif prev and not now:
                    tracer.event("vm_spindown", partition=p, timestep=t)
                prev = now
            if prev:
                tracer.event("vm_spindown", partition=p, timestep=T)
    return ElasticOutcome(
        powered=powered,
        vm_timesteps_static=T * P,
        vm_timesteps_elastic=int(powered.sum()),
        spinups=spinups,
        added_wall_s=(spinups - boots_at_t0) * policy.spinup_penalty_s,
    )
