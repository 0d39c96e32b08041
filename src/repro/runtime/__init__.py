"""Distributed runtime substrate: hosts, clusters, cost/GC models, metrics.

This package is the stand-in for the GoFFish platform's execution layer (one
partition per VM on EC2): :class:`~repro.runtime.host.ComputeHost` plays the
VM, :class:`~repro.runtime.cluster.Cluster` plays the cluster (one channel
per partition, in the driver or to a remote agent), and
:class:`~repro.runtime.metrics.MetricsCollector` plus
:class:`~repro.runtime.cost.CostModel` produce the simulated distributed
wall-clock that reproduces the paper's timing figures (see DESIGN.md).
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".cluster": ("Cluster",),
    ".cost": ("CostModel",),
    ".gc_model": ("GCModel",),
    ".host": (
        "CollectionInstanceSource", "ComputeHost", "HostStepResult", "InstanceSource", "RunMeta",
    ),
    ".metrics": ("MetricsCollector", "PartitionBreakdown", "StepRecord"),
    ".protocol": (
        "CorruptReply", "GatherTimeout", "RecoverableWorkerError", "WorkerError", "WorkerLost",
    ),
    # The remote-agent transport: only it needs multiprocessing.
    ".process_cluster": ("parse_hosts", "serve_worker"),
})
