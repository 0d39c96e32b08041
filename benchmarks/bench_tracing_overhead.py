"""Tracing overhead: the observability plane must be free when off, cheap when on.

The acceptance contract for the tracing plane is twofold:

* **disabled** (the default) the instrumented hot paths reduce to a single
  ``tracer is None`` identity check — results are bit-identical to a build
  without the plane, and the wall-clock penalty is noise;
* **enabled** the run still produces bit-identical application results
  (tracing only observes) at a bounded slowdown.

A watched run is a traced run that streams its event log
(``TraceConfig(stream_dir=...)``, what ``tibsp run --stream`` sets and
``tibsp top`` reads): the same contract, plus one joined write + flush per
round.

This bench runs TDSP/CARN hash-partitioned (the high-message-traffic
regime, where per-send instrumentation would hurt most) three ways —
untraced, traced (plus export), and traced+stream — taking the min over
rounds to damp scheduler noise.  With ``--json`` the numbers land in
``BENCH_tracing_overhead.json``; overhead percentages are reported rather
than hard-asserted because CI wall clocks are noisy, but result equality
IS asserted, and the streamed log must fold back to the run's summary.
"""

import pickle
import time

from repro.algorithms import TDSPComputation
from repro.analysis import render_table
from repro.core import EngineConfig, run_application
from repro.observability import TraceConfig, read_event_log
from repro.partition import HashPartitioner, partition_graph
from repro.runtime import CostModel
from repro.runtime.metrics import MetricsCollector

from conftest import SCALE, SEED, emit

PARTITIONS = 6
ROUNDS = 3

#: The tracing plane's documented overhead budget (see docs/observability.md).
#: Streaming must fit inside it: comparing against the budget envelope rather
#: than this run's traced wall keeps the check stable under CI clock jitter.
TRACING_BASELINE_PCT = 12.5


def _run_modes(pg, collection, modes):
    """Run every tracing mode once per round, interleaved.

    Interleaving means slow machine drift (thermal throttling, co-tenant
    load) hits all modes alike instead of whichever block ran last; the
    min over rounds damps the remaining jitter.
    """
    walls = {name: None for name in modes}
    results = {}
    for _ in range(ROUNDS):
        for name, tracing in modes.items():
            config = EngineConfig(cost_model=CostModel.for_scale(SCALE), tracing=tracing)
            t0 = time.perf_counter()
            results[name] = run_application(
                TDSPComputation(0, halt_when_stalled=True), pg, collection, config=config
            )
            wall = time.perf_counter() - t0
            walls[name] = wall if walls[name] is None else min(walls[name], wall)
    return results, walls


def test_tracing_overhead(benchmark, datasets, emit_json, tmp_path):
    tpl = datasets["CARN"]["template"]
    collection = datasets["CARN"]["road"]
    pg = partition_graph(tpl, PARTITIONS, HashPartitioner(seed=SEED))

    MODES = {
        "off": False,
        "traced": True,
        "traced+stream": TraceConfig(stream_dir=str(tmp_path / "stream")),
    }

    def run_all():
        results, walls = _run_modes(pg, collection, MODES)
        t0 = time.perf_counter()
        results["traced"].trace.write(tmp_path / "trace", {"bench": "tracing_overhead"})
        export_wall = time.perf_counter() - t0
        return results, walls, export_wall

    results, walls, export_wall = benchmark.pedantic(run_all, rounds=1, iterations=1)
    off_res, on_res, stream_res = results["off"], results["traced"], results["traced+stream"]
    off_wall, on_wall, stream_wall = walls["off"], walls["traced"], walls["traced+stream"]

    # Tracing only observes: application results are bit-identical with it
    # on, streamed or not.
    baseline_states = pickle.dumps(off_res.states)
    baseline_outputs = pickle.dumps(off_res.outputs)
    for res in (on_res, stream_res):
        assert pickle.dumps(res.states) == baseline_states
        assert pickle.dumps(res.outputs) == baseline_outputs
    assert off_res.trace is None and on_res.trace is not None
    # What `tibsp top` reads folds back to the run's own totals, at bench scale too.
    log = read_event_log(tmp_path / "stream" / "events.jsonl")
    folded = MetricsCollector.from_events(log, PARTITIONS, barrier_s=log[0]["barrier_s"])
    assert folded.summary() == stream_res.metrics.summary()

    def _pct(wall):
        return 100.0 * (wall - off_wall) / off_wall if off_wall else 0.0

    overhead_pct = _pct(on_wall)
    stream_pct = _pct(stream_wall)
    n_spans = len(on_res.trace.spans)
    n_events = len(on_res.trace.events)
    rows = [
        {"mode": "off", "bench_wall_s": round(off_wall, 4), "overhead_pct": 0.0},
        {"mode": "traced", "bench_wall_s": round(on_wall, 4), "overhead_pct": round(overhead_pct, 1)},
        {"mode": "traced+stream", "bench_wall_s": round(stream_wall, 4),
         "overhead_pct": round(stream_pct, 1)},
    ]
    emit(
        "tracing_overhead",
        render_table(
            rows,
            title=(
                f"Observability overhead (TDSP/CARN hash, {PARTITIONS} partitions): "
                f"tracing {overhead_pct:+.1f}%, traced+stream {stream_pct:+.1f}%, "
                f"export {export_wall:.3f}s"
            ),
        ),
    )
    emit_json(
        "tracing_overhead",
        {
            "dataset": "CARN",
            "algorithm": "TDSP",
            "partitions": PARTITIONS,
            "scale": SCALE,
            "rounds": ROUNDS,
            "wall_s_tracing_off": round(off_wall, 6),
            "wall_s_tracing_on": round(on_wall, 6),
            "wall_s_traced_and_streamed": round(stream_wall, 6),
            "overhead_pct": round(overhead_pct, 2),
            "traced_and_streamed_overhead_pct": round(stream_pct, 2),
            "tracing_baseline_pct": TRACING_BASELINE_PCT,
            "stream_overhead_within_tracing": (
                stream_wall <= on_wall or stream_pct <= TRACING_BASELINE_PCT
            ),
            "export_wall_s": round(export_wall, 6),
            "spans_recorded": n_spans,
            "events_recorded": n_events,
            "events_streamed": len(log),
            "results_bit_identical": True,
        },
    )
