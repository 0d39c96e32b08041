"""Messaging / synchronization cost model for the simulated cluster.

The paper runs on EC2 ``m3.large`` VMs with 1 GbE interconnect; our substrate
executes on one machine, so network and barrier costs are *modeled* rather
than measured.  The model charges:

* a per-message fixed overhead plus a bytes/bandwidth term for messages that
  cross partitions (they would traverse the network);
* a much smaller per-message cost for partition-local messages (in-memory
  hand-off between subgraphs of the same host);
* a fixed per-superstep barrier latency (BSP sync across hosts).

Modeled costs are *added to the metrics* (simulated wall-clock), never slept,
so simulations stay fast and perfectly repeatable.  Compute time, by
contrast, is genuinely measured.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["CostModel"]


class CostModel(NamedTuple):
    """Deterministic communication/synchronization costs (seconds).

    Defaults approximate the paper's testbed: 1 GbE (~117 MiB/s effective),
    ~50 µs per remote message envelope, ~1 ms per BSP barrier across hosts.

    The model distinguishes the message plane's two delivery paths: remote
    sends pay network envelope + bandwidth, while partition-local sends pay
    only an in-memory hand-off and *memory* bandwidth — a host-local
    delivery never touches the network.
    """

    remote_bandwidth_bytes_per_s: float = 117.0 * 2**20
    remote_per_message_s: float = 50e-6
    local_per_message_s: float = 2e-6
    #: Memory bandwidth for host-local deliveries (~DDR4 single-channel).
    local_bandwidth_bytes_per_s: float = 12.0 * 2**30
    barrier_s: float = 1e-3
    #: Durable-write bandwidth for checkpoint blobs (~local SSD).
    checkpoint_bandwidth_bytes_per_s: float = 200.0 * 2**20
    #: Fixed cost per checkpoint (manifest write + fsync-style latency).
    checkpoint_base_s: float = 1e-3

    def remote_send_cost(self, num_messages: int, num_bytes: int) -> float:
        """Cost of shipping ``num_messages`` totaling ``num_bytes`` off-host."""
        if num_messages == 0:
            return 0.0
        return num_messages * self.remote_per_message_s + num_bytes / self.remote_bandwidth_bytes_per_s

    def local_send_cost(self, num_messages: int, num_bytes: int = 0) -> float:
        """Cost of delivering messages between subgraphs on the same host.

        Local deliveries cost memory bandwidth, not network: a per-message
        hand-off constant plus ``num_bytes`` over memory bandwidth.
        """
        if num_messages == 0:
            return 0.0
        return (
            num_messages * self.local_per_message_s
            + num_bytes / self.local_bandwidth_bytes_per_s
        )

    def checkpoint_cost(self, num_bytes: int) -> float:
        """Modeled I/O cost of writing one checkpoint of ``num_bytes``.

        Charged into the simulated wall-clock by the engine whenever the
        resilience plane writes a durable boundary snapshot — fault
        tolerance is not free, and Fig-6-style timestep series should show
        the cadence.
        """
        return self.checkpoint_base_s + num_bytes / self.checkpoint_bandwidth_bytes_per_s

    def barrier_cost(self, num_partitions: int) -> float:
        """Cost of one BSP barrier across ``num_partitions`` hosts."""
        if num_partitions <= 1:
            return 0.0
        return self.barrier_s

    @staticmethod
    def for_scale(num_vertices: int, reference_vertices: int = 2_000_000) -> "CostModel":
        """Cost model with per-event overheads scaled to the problem size.

        The defaults are calibrated to the paper's testbed, where one BSP
        timestep over ~2 M vertices takes ~1 s of compute — against which a
        1 ms barrier is a rounding error.  Reproductions at smaller scale
        have proportionally smaller compute per superstep, so the *fixed*
        per-event costs (barrier, per-message envelope) must shrink by the
        same factor to preserve the paper's compute/overhead ratio; byte
        costs are left physical because message volume already shrinks with
        the graph.  See DESIGN.md §4 (cost model).
        """
        factor = max(1e-4, min(1.0, num_vertices / reference_vertices))
        base = CostModel()
        return CostModel(
            remote_bandwidth_bytes_per_s=base.remote_bandwidth_bytes_per_s,
            remote_per_message_s=base.remote_per_message_s * factor,
            local_per_message_s=base.local_per_message_s * factor,
            local_bandwidth_bytes_per_s=base.local_bandwidth_bytes_per_s,
            barrier_s=base.barrier_s * factor,
            checkpoint_bandwidth_bytes_per_s=base.checkpoint_bandwidth_bytes_per_s,
            checkpoint_base_s=base.checkpoint_base_s * factor,
        )

    @staticmethod
    def free() -> "CostModel":
        """A zero-cost model (useful in unit tests asserting pure compute)."""
        return CostModel(
            remote_bandwidth_bytes_per_s=float("inf"),
            remote_per_message_s=0.0,
            local_per_message_s=0.0,
            local_bandwidth_bytes_per_s=float("inf"),
            barrier_s=0.0,
            checkpoint_bandwidth_bytes_per_s=float("inf"),
            checkpoint_base_s=0.0,
        )
