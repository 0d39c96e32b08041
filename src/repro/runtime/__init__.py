"""Distributed runtime substrate: hosts, clusters, cost/GC models, metrics.

This package is the stand-in for the GoFFish platform's execution layer (one
partition per VM on EC2): :class:`~repro.runtime.host.ComputeHost` plays the
VM, :class:`~repro.runtime.cluster.LocalCluster` /
:class:`~repro.runtime.process_cluster.ProcessCluster` play the cluster, and
:class:`~repro.runtime.metrics.MetricsCollector` plus
:class:`~repro.runtime.cost.CostModel` produce the simulated distributed
wall-clock that reproduces the paper's timing figures (see DESIGN.md).
"""

from importlib import import_module

from .cluster import Cluster, LocalCluster
from .cost import CostModel
from .gc_model import GCModel
from .host import (
    CollectionInstanceSource,
    ComputeHost,
    HostStepResult,
    InstanceSource,
    RunMeta,
)
from .metrics import MetricsCollector, PartitionBreakdown, StepRecord
from .protocol import GatherTimeout, RecoverableWorkerError, WorkerError, WorkerLost

__all__ = [
    "Cluster",
    "LocalCluster",
    "CostModel",
    "GCModel",
    "CollectionInstanceSource",
    "ComputeHost",
    "HostStepResult",
    "InstanceSource",
    "RunMeta",
    "MetricsCollector",
    "PartitionBreakdown",
    "StepRecord",
    "ProcessCluster",
    "GatherTimeout",
    "RecoverableWorkerError",
    "WorkerError",
    "WorkerLost",
    "parse_hosts",
    "serve_worker",
]


#: The worker executor loads on selection (only it needs multiprocessing).
_ON_SELECTION = ("ProcessCluster", "parse_hosts", "serve_worker")


def __getattr__(name: str):
    if name in _ON_SELECTION:
        return getattr(import_module(".process_cluster", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
