"""Per-layer measurements, all taken from outside the program.

Two kinds.  *Probes* time calls into one layer's public functions on the
workload's own inputs, with no engine around them.  *Folds* sum the spans
the existing ``EngineConfig(tracing=True)`` tracer emits for one traced
operation into seconds per layer, so that the layer seconds plus
``core.engine.overhead_s`` equal the traced wall by construction.
"""

from __future__ import annotations

import pickle
import statistics
import time

import numpy as np

from repro.core.messages import Message, MessageFrame
from repro.kernels import expand_to_fixpoint, relax_to_fixpoint
from repro.observability.tracer import DRIVER_PID
from repro.partition.stats import edge_cut_fraction
from repro.storage import GoFS

PROBE_MESSAGES = 50_000

#: Host-track span names and the per-layer metric each one feeds.
HOST_SPANS = {
    "load": "storage.load_s",
    "compute": "runtime.host.compute_s",
    "send_flush": "runtime.host.send_flush_s",
    "end_of_timestep": "runtime.host.eot_s",
    "merge": "runtime.host.merge_s",
}


def repeat_median(fn, *, budget_s: float = 1.0, max_reps: int = 5) -> float:
    """Median seconds of ``fn()``, repeated while it fits a small budget."""
    samples = []
    spent = 0.0
    while not samples or (len(samples) < max_reps and spent < budget_s):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
        spent += samples[-1]
    return statistics.median(samples)


def ingest_layers(ingests, inputs) -> dict[str, float]:
    """Generate, partition and write, as timed around each call in ``build_inputs``.

    Medians over the set-up passes, or over the operations of the cold
    workload; the exact partition quality and store size of the latest.
    """
    write_s = statistics.median(i.write_s for i in ingests)
    store_mb = inputs.ingest.store_mb
    return {
        "generators.build_s": statistics.median(i.build_s for i in ingests),
        "partition.partition_s": statistics.median(i.partition_s for i in ingests),
        "partition.edge_cut_frac": edge_cut_fraction(inputs.template, inputs.pg.vertex_partition),
        "partition.subgraphs": inputs.pg.num_subgraphs,
        "storage.write_s": write_s,
        "storage.write_mb": store_mb,
        "storage.write_mb_per_s": store_mb / write_s,
    }


def probe_scan(inputs) -> dict[str, float]:
    """Storage read path alone: every view, ``instance(t)`` for every t."""
    timesteps = len(inputs.collection)

    def scan() -> None:
        for view in GoFS.partition_views(inputs.store):
            for t in range(timesteps):
                view.instance(t)

    seconds = repeat_median(scan)
    return {
        "storage.scan_s": seconds,
        "storage.scan_mb_per_s": inputs.ingest.store_mb / seconds,
    }


def probe_kernel(w, inputs) -> dict[str, float]:
    """The algorithm's fixpoint kernel on the largest subgraph's CSR."""
    sg = max(inputs.pg.subgraphs, key=lambda s: s.num_vertices)
    out = {"kernels.relax_ns_per_slot": 0.0, "kernels.expand_ns_per_slot": 0.0}
    if w.algorithm == "tdsp":
        weights = inputs.collection.instance(0).edge_column("latency")[sg.edge_index]
        seeds = np.zeros(1, dtype=np.int64)

        def relax() -> None:
            labels = np.full(sg.num_vertices, np.inf)
            labels[0] = 0.0
            relax_to_fixpoint(sg.indptr, sg.indices, weights, labels, seeds)

        out["kernels.relax_ns_per_slot"] = 1e9 * repeat_median(relax) / max(1, len(sg.indices))
    else:
        # Edges point from newer to older vertices, so the newest vertices
        # reach most of the subgraph.
        seeds = np.arange(max(0, sg.num_vertices - 100), sg.num_vertices, dtype=np.int64)
        scanned = 0

        def expand() -> None:
            nonlocal scanned
            visited = np.zeros(sg.num_vertices, dtype=bool)
            visited[seeds] = True
            expanded = np.zeros(sg.num_vertices, dtype=bool)
            _newly, expanded_now = expand_to_fixpoint(
                sg.indptr, sg.indices, seeds, visited, expanded
            )
            scanned = int((sg.indptr[expanded_now + 1] - sg.indptr[expanded_now]).sum())

        seconds = repeat_median(expand)
        out["kernels.expand_ns_per_slot"] = 1e9 * seconds / max(1, scanned)
    return out


def probe_messages(seed: int) -> dict[str, float]:
    """Message plane alone: pack a frame, pickle it as the pipes do, deliver."""
    rng = np.random.default_rng(seed)
    dsts = rng.integers(0, 64, PROBE_MESSAGES)
    sends = [
        (int(d), Message((int(d), float(x)), source_subgraph=0, timestep=0))
        for d, x in zip(dsts, rng.random(PROBE_MESSAGES))
    ]

    def roundtrip() -> None:
        frame = MessageFrame.pack(0, 1, sends)
        pickle.loads(pickle.dumps(frame, protocol=5)).deliver_into({})

    return {
        "core.messages.roundtrip_us_per_msg": 1e6 * repeat_median(roundtrip) / PROBE_MESSAGES
    }


#: The ingest layers, timed from outside; part of the wall of a cold operation.
INGEST_SECONDS = {
    "generators.build_s": "build_s",
    "partition.partition_s": "partition_s",
    "storage.write_s": "write_s",
}


def fold_trace(result, wall_s: float, *, serial: bool, ingest=None) -> dict[str, float]:
    """Seconds per layer of one traced operation, from its spans.

    Host spans never overlap on one track, so a host's busy time is their
    sum.  On the serial executor hosts run one after another in the driver
    process and the host spans partition the engine's wall; on the process
    and socket executors they overlap, and the driver's ``ship`` and
    ``barrier`` spans partition it instead.  A cold operation passes its
    ``ingest``, which precedes the engine inside the same wall.
    """
    engine_s = wall_s - (ingest.total_s if ingest is not None else 0.0)
    trace = result.trace
    host = {name: 0.0 for name in HOST_SPANS}
    busy: dict[int, float] = {}
    driver = {"timestep": 0.0, "merge_superstep": 0.0, "ship": 0.0, "barrier": 0.0}
    merge_supersteps = 0
    for pid, span in trace.spans:
        seconds = span.dur_ns / 1e9
        if pid == DRIVER_PID:
            if span.name in driver:
                driver[span.name] += seconds
                merge_supersteps += span.name == "merge_superstep"
        elif span.name in host:
            host[span.name] += seconds
            busy[pid] = busy.get(pid, 0.0) + seconds

    busy_max = max(busy.values())
    if serial:
        overhead = engine_s - sum(busy.values())
        barrier_idle = 0.0
    else:
        overhead = engine_s - driver["ship"] - driver["barrier"]
        barrier_idle = max(0.0, driver["barrier"] - busy_max)
    summary = result.metrics.summary()
    out = {metric: host[name] for name, metric in HOST_SPANS.items()}
    if ingest is not None:
        out.update({metric: getattr(ingest, attr) for metric, attr in INGEST_SECONDS.items()})
    out.update(
        {
            "storage.packs_loaded": trace.counters.get("gofs.packs_loaded", 0),
            "runtime.host.busy_max_s": busy_max,
            "runtime.host.imbalance": busy_max / statistics.fmean(busy.values()),
            "runtime.cluster.ship_s": driver["ship"],
            "runtime.cluster.barrier_s": driver["barrier"],
            "runtime.cluster.barrier_idle_s": barrier_idle,
            "core.engine.outside_timesteps_s": engine_s
            - driver["timestep"]
            - driver["merge_superstep"],
            "core.engine.overhead_s": overhead,
            "core.engine.unattributed_frac": overhead / wall_s,
            "core.engine.traced_wall_s": wall_s,
            "core.timesteps": summary["timesteps"],
            "core.supersteps": summary["supersteps"],
            "core.rounds": 2 * summary["timesteps"] + summary["supersteps"] + merge_supersteps,
            "core.messages": summary["messages"],
            "core.messages_remote": summary["remote_messages"],
            "core.frames": summary["frames"],
            "core.bytes_sent": summary["bytes_sent"],
            "runtime.cost.sim_wall_s": result.total_wall_s,
            "observability.spans": len(trace.spans),
            "observability.events": len(trace.events),
        }
    )
    return out


def budget_residual(fold: dict[str, float], *, serial: bool, cold: bool) -> float:
    """Traced wall minus the layers that partition it: zero if it reconciles."""
    if serial:
        parts = sum(fold[m] for m in HOST_SPANS.values())
    else:
        parts = fold["runtime.cluster.ship_s"] + fold["runtime.cluster.barrier_s"]
    if cold:
        parts += sum(fold[m] for m in INGEST_SECONDS)
    return fold["core.engine.traced_wall_s"] - parts - fold["core.engine.overhead_s"]
