"""Time-series graph collection: Γ = ⟨Ĝ, G, t0, δ⟩.

Section II-A: a collection bundles the time-invariant template ``Ĝ`` with a
time-ordered set of instances ``G`` starting at ``t0`` with constant period
``δ`` between successive instances (time-series graphs are periodic).

The instances are a sequence indexed by timestep: a list held in memory, a
:class:`LazyInstances` that synthesizes each one on access, or a GoFS view
reading each from its slices (:meth:`repro.storage.gofs.GoFS.open`) — so a
collection with thousands of instances need not fit in memory, mirroring
GoFS's incremental slice loading.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .instance import GraphInstance
from .template import GraphTemplate

__all__ = ["LazyInstances", "TimeSeriesGraphCollection", "build_collection"]

#: ``populate(instance, timestep)`` fills a default-initialized instance in place.
Populate = Callable[[GraphInstance, int], None]


class LazyInstances:
    """``count`` instances, each a fresh default instance filled by
    ``populate`` when indexed.

    ``populate`` must be deterministic in ``timestep`` (the generators seed
    their RNG with ``seed + timestep``).  Plain data and a module-level
    class, so it pickles whenever ``populate`` does: a process worker
    regenerates its instances in its own address space.
    """

    __slots__ = ("template", "count", "populate", "t0", "delta")

    def __init__(
        self, template: GraphTemplate, count: int, populate: Populate | None,
        *, t0: float = 0.0, delta: float = 1.0,
    ) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self.template = template
        self.count = int(count)
        self.populate = populate
        self.t0 = float(t0)
        self.delta = float(delta)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, timestep: int) -> GraphInstance:
        if not 0 <= timestep < self.count:
            raise IndexError(f"timestep {timestep} out of range [0, {self.count})")
        inst = GraphInstance(self.template, self.t0 + timestep * self.delta)
        if self.populate is not None:
            self.populate(inst, timestep)
        return inst


class TimeSeriesGraphCollection:
    """The paper's Γ = ⟨Ĝ, G, t0, δ⟩.

    Parameters
    ----------
    template:
        The shared topology ``Ĝ``.
    instances:
        The instances in timestep order: anything with ``len`` and
        ``instances[timestep]`` (a list, :class:`LazyInstances`, a GoFS view).
    t0:
        Timestamp of the first instance.
    delta:
        Constant period between successive instances (``δ > 0``).
    """

    __slots__ = ("template", "t0", "delta", "_instances")

    def __init__(
        self,
        template: GraphTemplate,
        instances: Sequence[GraphInstance],
        *,
        t0: float = 0.0,
        delta: float = 1.0,
    ) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.template = template
        self.t0 = float(t0)
        self.delta = float(delta)
        self._instances = instances

    def __len__(self) -> int:
        """Number of instances (timesteps) in the collection."""
        return len(self._instances)

    def instance(self, timestep: int) -> GraphInstance:
        """Instance at 0-based ``timestep`` (``g^{t0 + timestep * delta}``)."""
        if not 0 <= timestep < len(self._instances):
            raise IndexError(f"timestep {timestep} out of range [0, {len(self._instances)})")
        inst = self._instances[timestep]
        if inst.template is not self.template and not inst.template.equals(self.template):
            raise ValueError("instance template differs from collection template")
        return inst

    def __iter__(self) -> Iterator[GraphInstance]:
        for k in range(len(self)):
            yield self.instance(k)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TimeSeriesGraphCollection({self.template.name!r}, "
            f"instances={len(self)}, t0={self.t0}, delta={self.delta})"
        )


def build_collection(
    template: GraphTemplate,
    num_instances: int,
    populate: Populate | None = None,
    *,
    t0: float = 0.0,
    delta: float = 1.0,
    lazy: bool = False,
) -> TimeSeriesGraphCollection:
    """Create a collection whose instances are filled by ``populate``.

    Parameters
    ----------
    template:
        Shared topology.
    num_instances:
        Number of timesteps to create.
    populate:
        ``populate(instance, timestep)`` fills the default-initialized
        instance in place; ``None`` leaves defaults.
    lazy:
        When true, the instances are a :class:`LazyInstances`, synthesized
        on each access instead of being materialized up front
        (``populate`` must then be deterministic and, for a process run,
        picklable).
    """
    instances = LazyInstances(template, num_instances, populate, t0=t0, delta=delta)
    if not lazy:
        instances = [instances[k] for k in range(num_instances)]
    return TimeSeriesGraphCollection(template, instances, t0=t0, delta=delta)
