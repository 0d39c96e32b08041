"""A run imports what it runs: no scipy, networkx, asyncio or ssl — and no
offline analysis module, nor the ``tibsp top`` reader — on the path of a
serial, process or socket run (the socket run on ``tibsp worker`` agents
served from the same interpreter); the worker executor loads on selection,
so a serial run loads no ``socket`` or ``multiprocessing`` at all.  A GoFS
view reads on the thread that asks, so no thread pool (and the ``logging``
it brings) is loaded either.  A package root imports nothing until a name
is read from it, and a plain run loads neither the trace plane nor the
checkpoint module, nor the algorithms, partitioners and generators it does
not call; opening a store that exists loads no generator or partitioner.

Each check is a fresh interpreter, so what the test session has already
imported does not leak in.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

_PRELUDE = """
import sys
sys.path.insert(0, {src!r})
HEAVY = ("scipy", "networkx", "asyncio", "ssl")

def loaded():
    return sorted(m for m in HEAVY if m in sys.modules)
"""

_RUN = """
import queue
import tempfile
import threading
import repro
assert loaded() == [], ("import repro", loaded())
from repro import (EngineConfig, GoFS, TDSPComputation, partition_graph,
                   road_latency_collection, road_network, run_application)

def agents(n):
    from repro.runtime import serve_worker
    bound = queue.Queue()
    for _ in range(n):
        threading.Thread(target=serve_worker, args=(("127.0.0.1", 0),),
                         kwargs={"announce": bound.put}, daemon=True).start()
    return tuple("%s:%d" % bound.get(timeout=10) for _ in range(n))

def main():
    template = road_network(300, seed=1)
    collection = road_latency_collection(template, 4, seed=2)
    pg = partition_graph(template, 2)
    with tempfile.TemporaryDirectory() as store:
        GoFS.write_collection(store, pg, collection)
        for executor in ("serial", "process", "socket"):
            result = run_application(
                TDSPComputation(0), pg, collection,
                sources=GoFS.partition_views(store),
                config=EngineConfig(
                    executor=executor, hosts=agents(2) if executor == "socket" else None
                ),
            )
            assert result.timesteps_executed > 0
            assert loaded() == [], (executor, loaded())
        assert "repro.runtime.process_cluster" in sys.modules
    offline = sorted(
        m for m in sys.modules
        if m.startswith("repro.analysis")
        or m in ("repro.runtime.rebalance", "repro.runtime.elastic")
        or m in ("repro.observability.live", "repro.observability.export",
                 "repro.observability.top")
    )
    assert offline == [], offline
    print("clean")

if __name__ == "__main__":  # spawn-start workers re-import this file
    main()
"""

_SERIAL = """
import tempfile
from repro import (EngineConfig, GoFS, TDSPComputation, partition_graph,
                   road_latency_collection, road_network, run_application)
from repro.resilience import FaultPlan

template = road_network(300, seed=1)
collection = road_latency_collection(template, 4, seed=2)
pg = partition_graph(template, 2)
with tempfile.TemporaryDirectory() as store:
    GoFS.write_collection(store, pg, collection)
    result = run_application(
        TDSPComputation(0), pg, collection, sources=GoFS.partition_views(store),
        config=EngineConfig(faults=FaultPlan.parse("drop_frame@t1:p0,kill@t2:p1")),
    )
assert [a.kind for a in result.recovery_actions] == ["protocol_retry", "worker_respawn"]
wire = ("socket", "multiprocessing", "repro.runtime.process_cluster")
assert loaded() == [] and not [m for m in wire if m in sys.modules], (
    loaded(), [m for m in wire if m in sys.modules])
print("clean")
"""

_NO_THREAD_POOL = """
import tempfile
import repro
POOL = ("concurrent.futures", "logging")
assert not [m for m in POOL if m in sys.modules], ("import repro", POOL)
from repro import (EngineConfig, GoFS, TDSPComputation, partition_graph,
                   road_latency_collection, road_network, run_application)

def main():
    template = road_network(300, seed=1)
    collection = road_latency_collection(template, 4, seed=2)
    pg = partition_graph(template, 2)
    with tempfile.TemporaryDirectory() as store:
        GoFS.write_collection(store, pg, collection, packing=2)
        for executor in ("serial", "process"):
            result = run_application(
                TDSPComputation(0), pg, collection, sources=GoFS.partition_views(store),
                config=EngineConfig(executor=executor),
            )
            assert result.timesteps_executed > 0
            loaded_pool = [m for m in POOL if m in sys.modules]
            assert not loaded_pool, (executor, loaded_pool)
    print("clean")

if __name__ == "__main__":
    main()
"""

_RUNTIME_NAMES = """
import repro
from repro.runtime import WorkerLost
assert loaded() == [], loaded()
from repro.runtime import parse_hosts, serve_worker
assert loaded() == [], loaded()
import repro.runtime
try:
    repro.runtime.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute resolved")
print("clean")
"""

_PLAIN_RUN = """
import tempfile
import repro
assert [m for m in sys.modules if m.startswith("repro.")] == [], "import repro"
from repro import (EngineConfig, GoFS, TDSPComputation, partition_graph,
                   road_latency_collection, road_network, run_application)

NOT_RUN = [
    *("repro.algorithms." + m for m in
      ("evolution", "pagerank", "reachability", "sssp", "statistics", "top_n", "wcc")),
    *("repro.generators." + m for m in ("evolving", "snap")),
    "repro.partition.bfsp", "repro.partition.hashp", "repro.kernels.pagerank",
    "repro.resilience.faults",
]
TRACE = ["repro.observability." + m for m in ("runtrace", "chrome", "events")]
CHECKPOINT = ["repro.resilience.checkpoint"]

def run(store, **config):
    template = road_network(300, seed=1)
    collection = road_latency_collection(template, 4, seed=2)
    pg = partition_graph(template, 2)
    GoFS.write_collection(store, pg, collection)
    result = run_application(TDSPComputation(0), pg, collection,
                             sources=GoFS.partition_views(store),
                             config=EngineConfig(**config))
    assert result.timesteps_executed > 0
    return result

def loaded(names):
    return [m for m in names if m in sys.modules]

with tempfile.TemporaryDirectory() as tmp:
    run(tmp + "/plain")
    assert loaded(NOT_RUN + TRACE + CHECKPOINT) == [], loaded(NOT_RUN + TRACE + CHECKPOINT)
    import dataclasses
    generated = [f"{name}.{obj.__name__}" for name, module in list(sys.modules.items())
                 if name.startswith("repro") for obj in vars(module).values()
                 if dataclasses.is_dataclass(obj) and obj.__module__ == name]
    assert generated == [], generated
    assert run(tmp + "/traced", tracing=True).trace.event_records()
    assert loaded(TRACE) == TRACE, loaded(TRACE)
    from repro.resilience import CheckpointConfig
    run(tmp + "/checkpointed", checkpoint=CheckpointConfig(tmp + "/ck"))
    assert loaded(CHECKPOINT) == CHECKPOINT and list(Path(tmp, "ck").glob("ckpt-*"))
assert loaded(NOT_RUN) == [], loaded(NOT_RUN)
print("clean")
"""

_CLI_RUN = """
import contextlib
import io
from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", "tdsp", "--scale", "300", "--instances", "4", "--partitions", "2"]) == 0
offline = [m for m in sys.modules if m == "repro.baselines" or m in (
    "repro.analysis.critical_path", "repro.analysis.export", "repro.analysis.elastic",
    "repro.analysis.timeline")]
assert offline == [], offline
print("clean")
"""

_CLI_IMPORT = """
import repro.cli
heavy = [m for m in sys.modules if m.startswith(("repro.generators", "repro.partition"))
         or m == "repro.storage.gofs"]
assert heavy == [], heavy
import repro.runtime.process_cluster as process_cluster

def serve_worker(*args, **kwargs):  # what `tibsp worker` has loaded when it serves
    heavy = [m for m in sys.modules if m.startswith(("repro.generators", "repro.storage"))
             or m.startswith("repro.partition.") and m != "repro.partition.base"]
    assert heavy == [], heavy
    print("clean")

process_cluster.serve_worker = serve_worker
repro.cli.main(["worker", "--listen", "127.0.0.1:0"])
"""

_OPEN_STORE = """
import contextlib
import io
from repro.cli import main
from repro.storage import GoFS

def ingest():
    return [m for m in sys.modules if m.startswith("repro.generators")
            or m in ("repro.partition.metis_like", "repro.partition.refine")]

pg, collection, views = GoFS.open(STORE)
assert collection.instance(1).edge_values.take("latency", pg.subgraphs[0].edge_index).size
assert ingest() == [], ("GoFS.open", ingest())
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", "tdsp", *FLAGS, "--gofs", STORE]) == 0
assert ingest() == [], ("tibsp run --gofs", ingest())
print("clean")
"""

_SHADOWED = """
import repro.partition.metis_like  # imports the ``repro.kernels.components`` submodule
import repro.kernels
assert callable(repro.kernels.components), repro.kernels.components
from repro.kernels import components
assert callable(components)
print("clean")
"""


def _run_fresh(tmp_path, body: str) -> None:
    script = tmp_path / "hygiene_script.py"
    script.write_text(_PRELUDE.format(src=SRC) + body)
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0 and done.stdout.strip() == "clean", done.stderr


def test_serial_and_process_runs_import_no_scipy_networkx_asyncio_ssl(tmp_path):
    _run_fresh(tmp_path, _RUN)


def test_a_serial_run_imports_no_socket_multiprocessing_or_worker_executor(tmp_path):
    """The protocol core is I/O-free: a serial run, faults and repairs
    included, never loads the worker executor or what it speaks over."""
    _run_fresh(tmp_path, _SERIAL)


def test_a_run_over_gofs_loads_no_thread_pool_or_logging(tmp_path):
    _run_fresh(tmp_path, _NO_THREAD_POOL)


def test_runtime_names_resolve_and_no_executor_loads_asyncio(tmp_path):
    _run_fresh(tmp_path, _RUNTIME_NAMES)


def test_a_plain_run_loads_no_trace_checkpoint_or_unused_library_module(tmp_path):
    """``import repro`` loads no submodule; a plain serial TDSP run over GoFS
    loads only what it calls, none of it defining a dataclass, and a traced
    or checkpointed run what it uses."""
    _run_fresh(tmp_path, "from pathlib import Path\n" + _PLAIN_RUN)


def test_a_cli_run_without_stream_or_export_loads_no_offline_module(tmp_path):
    _run_fresh(tmp_path, _CLI_RUN)


def test_tibsp_worker_loads_no_generator_partitioner_or_gofs_writer(tmp_path):
    """``import repro.cli`` loads no subcommand's modules, and the worker
    reaches ``serve_worker`` with the runtime alone (``repro.partition.base``
    is the runtime's ``PartitionedGraph``, not a partitioner)."""
    _run_fresh(tmp_path, _CLI_IMPORT)


def test_opening_a_store_loads_no_generator_or_partitioner(tmp_path):
    """``GoFS.open`` and ``tibsp run --gofs`` over a store that exists read
    the dataset: no generator, no partitioner, not even imported."""
    from repro.cli import main

    store, flags = str(tmp_path / "store"), ["--scale", "300", "--instances", "4", "--partitions", "2"]
    assert main(["store", store, *flags]) == 0
    _run_fresh(tmp_path, f"STORE, FLAGS = {store!r}, {flags!r}\n" + _OPEN_STORE)


def test_a_function_that_shadows_its_submodule_stays_the_function(tmp_path):
    _run_fresh(tmp_path, _SHADOWED)


ROOTS = [
    "repro", "repro.algorithms", "repro.analysis", "repro.baselines", "repro.core",
    "repro.generators", "repro.graph", "repro.kernels", "repro.observability",
    "repro.partition", "repro.resilience", "repro.runtime", "repro.storage",
]


@pytest.mark.parametrize("root", ROOTS)
def test_every_reexport_resolves(root):
    """Each ``__all__`` name resolves and is listed; ``import *`` binds exactly
    ``__all__``; an unknown name is an ``AttributeError`` naming it."""
    pkg = importlib.import_module(root)
    assert pkg.__all__ and len(set(pkg.__all__)) == len(pkg.__all__)
    listed = dir(pkg)
    for name in pkg.__all__:
        getattr(pkg, name)
        assert name in listed, (root, name)
    namespace: dict = {}
    exec(f"from {root} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pkg.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
    assert callable(importlib.import_module("repro.kernels").components)
