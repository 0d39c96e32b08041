"""Shared fixtures: small graphs, collections, and partitioned graphs."""

from __future__ import annotations

import io
import json
import queue
import threading

import numpy as np
import pytest

from repro.graph import (
    AttributeSchema,
    AttributeSpec,
    GraphTemplate,
    Ragged,
    build_collection,
)
from repro.partition import HashPartitioner, partition_graph
from repro.runtime.metrics import MetricsCollector
from repro.storage.serde import write_arrays


def make_grid_template(rows: int, cols: int, *, name: str = "grid", with_attrs: bool = True) -> GraphTemplate:
    """A rows×cols undirected grid with latency/tweets/traffic schemas."""
    src, dst = [], []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                src.append(v)
                dst.append(v + 1)
            if r + 1 < rows:
                src.append(v)
                dst.append(v + cols)
    vschema = (
        AttributeSchema(
            [
                AttributeSpec("tweets", "ragged"),
                AttributeSpec("traffic", "float"),
                AttributeSpec("flag", "bool"),
            ]
        )
        if with_attrs
        else None
    )
    eschema = AttributeSchema([AttributeSpec("latency", "float")]) if with_attrs else None
    return GraphTemplate(
        rows * cols, src, dst, name=name, vertex_schema=vschema, edge_schema=eschema
    )


def make_random_template(
    n: int,
    m: int,
    rng: np.random.Generator,
    *,
    directed: bool = False,
    name: str = "random",
) -> GraphTemplate:
    """A random simple graph with latency/tweets schemas (may be disconnected)."""
    pairs: set[tuple[int, int]] = set()
    guard = 0
    while len(pairs) < m and guard < 50 * m:
        guard += 1
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b:
            continue
        key = (a, b) if directed else (min(a, b), max(a, b))
        pairs.add(key)
    src, dst = zip(*sorted(pairs)) if pairs else ((), ())
    return GraphTemplate(
        n,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        directed=directed,
        vertex_schema=AttributeSchema(
            [AttributeSpec("tweets", "ragged"), AttributeSpec("traffic", "float")]
        ),
        edge_schema=AttributeSchema([AttributeSpec("latency", "float")]),
        name=name,
    )


def populate_random(seed: int):
    """A deterministic populator for grid/random templates."""

    def _pop(inst, t):
        rng = np.random.default_rng(seed + t)
        n = inst.template.num_vertices
        m = inst.template.num_edges
        inst.edge_values.set_column("latency", rng.uniform(0.5, 8.0, m))
        inst.vertex_values.set_column("traffic", rng.uniform(0.0, 100.0, n))
        tweets = []
        for v in range(n):
            k = int(rng.integers(0, 3))
            tweets.append(rng.integers(0, 4, k).tolist())
        inst.vertex_values.set_column("tweets", ragged(tweets))

    return _pop


def pack_arrays(arrays, *, defaults=()) -> bytes:
    """One GSL2 buffer's bytes: :func:`write_arrays` into memory."""
    buf = io.BytesIO()
    write_arrays(buf, arrays, defaults=defaults)
    return buf.getvalue()


def ragged(cells) -> Ragged:
    """A ragged column from one sequence of integers per row (``None``: empty)."""
    owners = [i for i, c in enumerate(cells) for _ in (c or ())]
    values = [x for c in cells for x in (c or ())]
    return Ragged(len(cells), np.asarray(owners, dtype=np.int64), np.asarray(values, dtype=np.int64))


def ragged_rows(column: Ragged) -> list[list[int]]:
    """A ragged column's rows as lists, to compare against Python cells."""
    return [column.row(i).tolist() for i in range(column.n)]


def refold(result, events=None) -> MetricsCollector:
    """Fold a traced run's event log, through JSON, back into a collector."""
    if events is None:
        events = result.trace.event_records()
    m = result.metrics
    return MetricsCollector.from_events(
        json.loads(json.dumps(events)), m.num_partitions, barrier_s=m.barrier_s
    )


def folds_equal(a: MetricsCollector, b: MetricsCollector) -> bool:
    """Every derived figure of two collectors agrees with ``==`` (no
    tolerance), and so do their failure and repair records, one by one."""
    return (
        a.summary() == b.summary()
        and a.partition_breakdown() == b.partition_breakdown()
        and a.timestep_series() == b.timestep_series()
        and a.total_load_s() == b.total_load_s()
        and a.failures == b.failures
        and a.repairs == b.repairs
    )


def assert_one_record_stream(result) -> None:
    """The event-log completeness check, with one arithmetic.

    The collector the run ended with and the one ``from_events`` rebuilds
    from its JSON-round-tripped event log agree exactly; every checkpoint is
    charged to an executed timestep; and the critical-path report covers
    exactly the executed timesteps and re-partitions the simulated wall.
    """
    from repro.analysis import critical_path_report

    m = result.metrics
    assert folds_equal(refold(result), m)
    executed = sorted(m.supersteps_per_timestep)
    assert set(m.checkpoint_s) <= set(executed)
    report = critical_path_report(m)
    assert [e["timestep"] for e in report["timesteps"]] == executed
    attributed = sum(e["wall_s"] for e in report["timesteps"])
    assert attributed == pytest.approx(m.total_wall() - m.merge_wall(), abs=1e-12)


#: Agents the test session starts for runs that name ``hosts``: one per
#: partition of the widest such run.
NUM_AGENTS = 4


@pytest.fixture(scope="session")
def external_workers() -> tuple[str, ...]:
    """``tibsp worker`` agents (``serve_worker``) on free localhost ports.

    The shape of a deployment: agents somebody started, named by ``hosts``.
    An agent serves one session at a time and outlives each (a ``kill``
    severs one and the respawn reconnects), so the whole test session
    shares them; a run over k partitions takes the first k (:func:`hosts_for`).
    """
    from repro.runtime import serve_worker

    bound: queue.Queue = queue.Queue()
    for _ in range(NUM_AGENTS):
        threading.Thread(
            target=serve_worker,
            args=(("127.0.0.1", 0),),
            kwargs={"announce": bound.put},
            daemon=True,  # the accept loops end with the test process
        ).start()
    return tuple(f"{h}:{p}" for h, p in (bound.get(timeout=10) for _ in range(NUM_AGENTS)))


def hosts_for(executor: str, agents, num_partitions: int):
    """``EngineConfig.hosts`` for an executor parametrization: ``socket``
    runs on the session's agents, every other executor on none."""
    return tuple(agents[:num_partitions]) if executor == "socket" else None


@pytest.fixture
def grid_template() -> GraphTemplate:
    return make_grid_template(5, 6)


@pytest.fixture
def grid_collection(grid_template):
    return build_collection(grid_template, 6, populate_random(11), delta=5.0)


@pytest.fixture
def grid_pg(grid_template):
    return partition_graph(grid_template, 3, HashPartitioner(seed=1))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
