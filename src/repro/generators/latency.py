"""Road data generator for TDSP (paper Section IV-A).

    "We use a random value for travel latency for each edge (road) of the
    graph, and across timesteps.  There is no correlation between the values
    in space or time."

:class:`UniformLatencyPopulator` reproduces exactly that: i.i.d. uniform
latencies per edge per instance, seeded per timestep so lazily regenerated
instances are identical across hosts and processes.
"""

from __future__ import annotations

import numpy as np

from ..graph.collection import TimeSeriesGraphCollection, build_collection
from ..graph.instance import GraphInstance
from ..graph.template import GraphTemplate

__all__ = ["UniformLatencyPopulator", "road_latency_collection"]


class UniformLatencyPopulator:
    """Fill the ``latency`` edge column with i.i.d. uniform values.

    Parameters
    ----------
    low, high:
        Latency range.  :func:`road_latency_collection` defaults to
        (0.02·δ, 0.2·δ), tuned so the TDSP wave crosses a 20 k-vertex
        CARN-like graph in ≈40 of 50 timesteps — the paper's coverage shape
        (47 of 50 at its scale).  Mid-window departures can still be blocked
        by the window end, so the problem stays genuinely time-dependent
        (the paper's Fig 5a example), and ``high ≤ δ`` keeps every edge
        traversable from a window start, which makes TDSP's stall-based
        early halt exact (see :class:`~repro.algorithms.tdsp.TDSPComputation`).
    seed:
        Base seed; instance ``t`` uses ``seed + t``.
    attr:
        Edge attribute name.
    """

    def __init__(
        self,
        low: float = 0.5,
        high: float = 10.0,
        *,
        seed: int = 0,
        attr: str = "latency",
    ) -> None:
        if not 0 < low <= high:
            raise ValueError("need 0 < low <= high")
        self.low = float(low)
        self.high = float(high)
        self.seed = int(seed)
        self.attr = attr

    def __call__(self, instance: GraphInstance, timestep: int) -> None:
        rng = np.random.default_rng(self.seed + timestep)
        m = instance.template.num_edges
        instance.edge_values.set_column(self.attr, rng.uniform(self.low, self.high, m))


def road_latency_collection(
    template: GraphTemplate,
    num_instances: int = 50,
    *,
    delta: float = 5.0,
    seed: int = 0,
    low: float | None = None,
    high: float | None = None,
) -> TimeSeriesGraphCollection:
    """The paper's TDSP workload: ``num_instances`` of random latencies.

    Defaults scale the latency range to δ (see
    :class:`UniformLatencyPopulator`).
    """
    low = 0.02 * delta if low is None else low
    high = 0.2 * delta if high is None else high
    populator = UniformLatencyPopulator(low, high, seed=seed)
    return build_collection(template, num_instances, populator, delta=delta, lazy=True)
