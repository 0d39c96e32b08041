"""Populator composition.

Workload generators produce *populators* — callables ``populator(instance,
timestep)`` that fill a default-initialized instance in place, which
:func:`~repro.graph.collection.build_collection` turns into a collection.
Everything here is a module-level class holding plain data, so populators
pickle cleanly — a requirement for process-cluster workers, which
regenerate their instances inside their own address space.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..graph.instance import GraphInstance

__all__ = ["CompositePopulator"]


class CompositePopulator:
    """Apply several populators in order (e.g. SIR tweets + background hashtags)."""

    def __init__(self, populators: Sequence[Callable[[GraphInstance, int], None]]) -> None:
        self.populators = list(populators)

    def __call__(self, instance: GraphInstance, timestep: int) -> None:
        for p in self.populators:
            p(instance, timestep)
