"""repro — Distributed Programming over Time-series Graphs (TI-BSP / GoFFish).

A from-scratch Python reproduction of Simmhan et al., *Distributed
Programming over Time-series Graphs* (2015): the time-series graph data
model, the Temporally Iterative BSP (TI-BSP) programming abstraction over a
subgraph-centric model, the paper's three algorithms (Hashtag Aggregation,
Meme Tracking, Time-Dependent Shortest Path), the GoFS storage substrate,
partitioners, a simulated/multiprocess cluster runtime, and a vertex-centric
Pregel baseline.

Quickstart
----------
>>> from repro import (road_network, road_latency_collection,
...                    partition_graph, run_application, TDSPComputation)
>>> template = road_network(2_000, seed=1)
>>> collection = road_latency_collection(template, 20, seed=2)
>>> pg = partition_graph(template, 4)
>>> result = run_application(TDSPComputation(source=0), pg, collection)
>>> result.timesteps_executed > 0
True

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

import sys
from importlib import import_module

__version__ = "1.0.0"


def _lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` of a package root over ``table``.

    Every package root resolves its names on first access, so importing one
    module of a package compiles none of its siblings.  ``table`` maps a
    module, relative to ``package``, to the names the root re-exports from
    it; the names under ``"."`` are submodules exported as themselves.  A
    resolved name is bound on the package, so it resolves once.
    """
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == ".":
            value = import_module("." + name, package)
        else:
            value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return list(where), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".algorithms": (
        "BFSComputation", "HashtagAggregationComputation", "MemeTrackingComputation",
        "PageRankComputation", "SSSPComputation", "TDSPComputation", "TopNComputation",
        "WCCComputation",
    ),
    ".core": (
        "AppResult", "ComputeContext", "EndOfTimestepContext", "EngineConfig", "MergeContext",
        "Message", "Pattern", "TIBSPEngine", "TimeSeriesComputation", "run_application",
    ),
    ".generators": (
        "paper_datasets", "road_latency_collection", "road_network", "smallworld_network",
        "tweet_collection",
    ),
    ".graph": (
        "AttributeSchema", "AttributeSpec", "GraphInstance", "GraphTemplate",
        "GraphTemplateBuilder", "Subgraph", "TimeSeriesGraphCollection", "build_collection",
    ),
    ".partition": (
        "BFSPartitioner", "HashPartitioner", "MetisLikePartitioner", "PartitionedGraph",
        "partition_graph",
    ),
    ".runtime": ("CostModel", "GCModel"),
    ".storage": ("GoFS",),
})
__all__.append("__version__")
