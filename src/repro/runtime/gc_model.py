"""Deterministic garbage-collection pause model (Fig 6 artifact).

Section IV-D: GoFFish triggers a manual JVM GC every 20 timesteps at
synchronized points across partitions; the resulting pauses show up as spikes
at timesteps 20 and 40, and are *larger for fewer partitions* because each
host then handles more data (higher memory pressure).

Python's refcounting makes real pauses negligible, so to reproduce (and let
users reason about) the phenomenon we *model* it: a pause charged to the
metrics at every ``interval``-th timestep, proportional to the bytes resident
per host.  The model is pure — no sleeping, fully deterministic — and can be
disabled entirely (``GCModel.disabled()``), which is itself an ablation the
paper discusses (unsynchronized default GC is worse).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["GCModel"]


class GCModel(NamedTuple):
    """Synchronized periodic GC pause model.

    Parameters
    ----------
    interval:
        Trigger a pause at every ``interval``-th timestep (0 disables).
    pause_per_gib_s:
        Pause seconds per GiB of data resident on one host.
    min_pause_s:
        Floor on a triggered pause.
    """

    interval: int = 20
    pause_per_gib_s: float = 2.0
    min_pause_s: float = 0.05

    @staticmethod
    def disabled() -> "GCModel":
        return GCModel(interval=0)

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    def pause_at(self, timestep: int, resident_bytes: int) -> float:
        """Pause (seconds) charged at ``timestep`` given per-host resident bytes.

        Timesteps are 0-based; the paper's "spikes at timesteps 20 and 40"
        correspond to the 20th/40th instance, i.e. ``timestep % interval == 0``
        for ``timestep > 0``.
        """
        if not self.enabled or timestep == 0 or timestep % self.interval != 0:
            return 0.0
        gib = resident_bytes / 2**30
        return max(self.min_pause_s, gib * self.pause_per_gib_s)
