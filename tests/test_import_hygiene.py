"""A run imports what it runs: no scipy, networkx, asyncio or ssl — and no
offline analysis module, nor the ``tibsp top`` reader — on the path of a
serial, process or socket run (the socket run on ``tibsp worker`` agents
served from the same interpreter); the worker executor loads on selection,
so a serial run loads no ``socket`` or ``multiprocessing`` at all.  A GoFS
view reads on the thread that asks, so no thread pool (and the ``logging``
it brings) is loaded either.

Each check is a fresh interpreter, so what the test session has already
imported does not leak in.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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
