"""Command-line interface: run the paper's experiments from a terminal.

Subcommands:

  tibsp datasets   Table 1: generated dataset statistics
  tibsp edgecuts   Table 2: edge-cut % for 3/6/9 partitions
  tibsp run        run one algorithm on one dataset configuration; with
                   --stream DIR, record it: event log, Perfetto trace,
                   manifest and critical-path report in DIR
  tibsp worker     serve one partition's worker agent over TCP (run --hosts)
  tibsp top        watch a run: fold the event log a 'run --stream DIR' writes
  tibsp fig5b      the Giraph-vs-GoFFish comparison
  tibsp store      write a dataset into a GoFS store directory

Every subcommand but worker and top accepts --scale (template vertices) and
--seed; they print the same rows and series the paper's tables and figures
report.  The repro console script is an alias for tibsp.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Each subcommand imports what it uses, so `tibsp worker` loads the runtime
# alone: no generator, partitioner or GoFS writer.

__all__ = ["main"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=int, default=20_000, help="template vertex count")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--instances", type=int, default=50, help="number of graph instances")


def _partition(args: argparse.Namespace, template, k: int | None = None):
    """``template`` in ``k`` (default ``--partitions``) parts, seeded by ``--seed``."""
    from .partition import MetisLikePartitioner, partition_graph

    return partition_graph(template, k or args.partitions, MetisLikePartitioner(seed=args.seed))


def _templates(args: argparse.Namespace) -> list:
    """The CARN and WIKI templates at ``--scale``, seeded by ``--seed``."""
    from .generators.datasets import GRAPHS

    return [generate(args.scale, seed=args.seed) for generate, _ in GRAPHS.values()]


def _datasets(args: argparse.Namespace) -> int:
    from .analysis import render_table

    rows = [tpl.stats() for tpl in _templates(args)]
    print(render_table(rows, title="Generated graph templates (Table 1 analogue)"))
    return 0


def _edgecuts(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .partition import compute_stats

    rows = []
    for tpl in _templates(args):
        for k in (3, 6, 9):
            rows.append(compute_stats(_partition(args, tpl, k)).as_row())
    print(render_table(rows, title="Edge cut % across partitions (Table 2 analogue)"))
    return 0


def _evolving_collection(args: argparse.Namespace):
    """A template + collection with periodic is_exists edge schedules."""
    from .generators import PeriodicExistencePopulator
    from .generators.datasets import GRAPHS
    from .graph import AttributeSchema, AttributeSpec, GraphTemplate, build_collection

    base = GRAPHS[args.graph][0](args.scale, seed=args.seed)
    template = GraphTemplate(
        base.num_vertices,
        base.edge_src,
        base.edge_dst,
        directed=base.directed,
        edge_schema=AttributeSchema([AttributeSpec("is_exists", "bool", default=True)]),
        name=base.name,
    )
    populator = PeriodicExistencePopulator(template, seed=args.seed)
    return template, build_collection(template, args.instances, populator, lazy=True)


#: The collection each algorithm reads.
_COLLECTION = {
    "tdsp": "road", "stats": "road", "meme": "tweets", "hash": "tweets",
    "reach": "evolving", "evolve": "evolving",
}


def _generate(args: argparse.Namespace, kind: str):
    """``(pg, collection)``: ``--graph``'s ``kind`` collection, its template
    partitioned."""
    if kind == "evolving":
        template, collection = _evolving_collection(args)
    else:
        from .generators import paper_dataset

        template, collection = paper_dataset(
            args.graph, kind, args.scale, args.instances, seed=args.seed
        )
    return _partition(args, template), collection


def _dataset(args: argparse.Namespace, kind: str) -> dict:
    """What the dataset flags generate: a store's manifest records it."""
    return {
        "graph": args.graph, "collection": kind, "scale": args.scale, "seed": args.seed,
        "instances": args.instances, "partitions": args.partitions,
    }


def _open_store(args: argparse.Namespace, kind: str):
    """``--gofs DIR`` as ``(pg, collection, views)``: the store is written
    first if it has no manifest, then opened; a ``ValueError`` unless it holds
    the dataset the flags name."""
    from .storage import GoFS

    root, dataset = Path(args.gofs), _dataset(args, kind)
    if not (root / "manifest.json").exists():
        pg, collection = _generate(args, kind)
        manifest = GoFS.write_collection(root, pg, collection, dataset=dataset)
        print(f"wrote GoFS store to {root} (packing={manifest['packing']})")
    stored = GoFS.read_manifest(root)["dataset"]
    if not stored:
        raise ValueError(
            f"GoFS store {root} records no dataset, so no flag can be held to it; "
            "write it with 'tibsp store' or 'tibsp run --gofs'"
        )
    if stored.get("collection") != kind:
        raise ValueError(
            f"GoFS store {root} holds the {stored.get('collection')} collection, but "
            f"{args.algorithm} reads the {kind} collection"
        )
    for key, value in dataset.items():
        if stored.get(key) != value:
            raise ValueError(
                f"GoFS store {root} was written for {key}={stored.get(key)!r} but the run "
                f"has --{key} {value}: it is another dataset's store; delete it or match "
                "the run to it"
            )
    return GoFS.open(root)


def _make_computation(args: argparse.Namespace, template, collection, pg):
    if args.algorithm == "tdsp":
        from .algorithms.tdsp import TDSPComputation
        return TDSPComputation(source=args.source, halt_when_stalled=True)
    if args.algorithm == "meme":
        from .algorithms.meme import MemeTrackingComputation
        return MemeTrackingComputation(meme=0)
    if args.algorithm == "hash":
        from .algorithms.hashtag import HashtagAggregationComputation
        return HashtagAggregationComputation.for_partitioned_graph(pg, 0)
    if args.algorithm == "reach":
        from .algorithms.reachability import TemporalReachabilityComputation
        return TemporalReachabilityComputation(source=args.source)
    if args.algorithm == "evolve":
        from .algorithms.evolution import CommunityEvolutionComputation
        from .algorithms.hashtag import largest_subgraph_in_partition
        return CommunityEvolutionComputation(
            template.num_vertices, largest_subgraph_in_partition(pg, 0)
        )
    from .algorithms.statistics import InstanceStatisticsComputation
    return InstanceStatisticsComputation(
        "latency", on="edges", range_low=0.0, range_high=0.2 * collection.delta
    )


def _provenance(args: argparse.Namespace) -> dict:
    """Run arguments stamped on ``--export`` summaries and run manifests."""
    from .observability import run_provenance

    return run_provenance(
        algorithm=args.algorithm,
        graph=args.graph,
        executor=args.executor,
        partitions=args.partitions,
        scale=args.scale,
        instances=args.instances,
        seed=args.seed,
    )


def _check_run_flags(args: argparse.Namespace) -> list[str]:
    """Reject flags that would otherwise be silently inert.

    Each returned string is a hard error: a tuning knob the user set that
    cannot affect the run they asked for is a misconfiguration, not a no-op.
    Checked before anything is generated; ``args.hosts`` becomes the parsed
    addresses.
    """
    problems: list[str] = []
    if args.hosts is not None and args.executor != "socket":
        problems.append(
            "--hosts addresses external tibsp workers, which only the socket "
            "executor connects to; add --executor socket"
        )
    elif args.hosts is not None:
        from .runtime import parse_hosts

        try:
            args.hosts = tuple(parse_hosts(args.hosts))
        except ValueError as exc:
            problems.append(f"--hosts: {exc}")
        else:
            if len(args.hosts) != args.partitions:
                problems.append(
                    f"--hosts names {len(args.hosts)} agent(s) for "
                    f"--partitions {args.partitions}: give one address per partition"
                )
    if args.degrade and args.quarantine:
        problems.append(
            "--degrade and --quarantine are two answers to exhausted retries; "
            "pick one"
        )
    wants_recovery = args.max_retries is not None or args.degrade or args.quarantine
    if wants_recovery and not args.inject_faults and args.executor not in ("process", "socket"):
        # Every run is supervised, but in-process executors without injected
        # faults have no recoverable failure source: the policy would never
        # act.  Loud, not fatal.
        print(
            "WARNING: recovery flags (--max-retries/--degrade/--quarantine) "
            "have no effect on an in-process executor without "
            "--inject-faults: nothing can fail recoverably",
            file=sys.stderr,
        )
    return problems


def _resilience_config(args: argparse.Namespace) -> dict:
    """EngineConfig kwargs for the resilience flags.

    The recovery policy is always given: every run is supervised, and the
    flags only change the retry budget or what happens when it runs out.
    """
    from .resilience import RecoveryPolicy

    kwargs: dict = {}
    if args.checkpoint_every or args.resume_from is not None:
        from .resilience import CheckpointConfig

        kwargs["checkpoint"] = CheckpointConfig(
            dir=args.checkpoint_dir, every=args.checkpoint_every or 1
        )
    if args.inject_faults:
        from .resilience import FaultPlan

        kwargs["faults"] = FaultPlan.parse(args.inject_faults)
    retries = {} if args.max_retries is None else {"max_retries": args.max_retries}
    exhausted = "degrade" if args.degrade else "quarantine" if args.quarantine else "raise"
    kwargs["recovery"] = RecoveryPolicy(on_exhausted=exhausted, **retries)
    if args.gather_timeout is not None:
        kwargs["gather_timeout_s"] = args.gather_timeout
    return kwargs


def _record(args: argparse.Namespace, result) -> int:
    """Write what ``--export`` and ``--stream`` ask for of a run, failed or not.

    A streamed run's directory gets, beside the ``events.jsonl`` it streamed,
    the Perfetto ``trace.json``, ``manifest.json`` (provenance, the run's
    summary and failure provenance, counters) and ``critical_path.json``.
    Returns 1 when the trace is not a valid Chrome trace, else 0.
    """
    if not (args.export or args.stream):
        return 0
    import json

    from .analysis import (
        critical_path_report, failure_provenance, format_critical_path_report, write_result_json,
    )
    from .observability import validate_chrome_trace

    provenance = _provenance(args)
    if args.export:
        path = write_result_json(args.export, result, provenance=provenance)
        print(f"run summary written to {path}")
    if not args.stream:
        return 0
    out = Path(args.stream)
    manifest = {
        **provenance,
        "barrier_s": result.metrics.barrier_s,
        "metrics": result.metrics.summary(),
        **failure_provenance(result),
    }
    paths = result.trace.write(out, manifest)
    report = critical_path_report(result.metrics)
    (out / "critical_path.json").write_text(json.dumps(report, indent=2))
    print(format_critical_path_report(report))
    print(f"recorded run in {out}: {paths['events'].name} (watch with 'tibsp top {out}'), "
          f"{paths['trace'].name} (open in https://ui.perfetto.dev), "
          f"{paths['manifest'].name}, critical_path.json")
    errors = validate_chrome_trace(json.loads(paths["trace"].read_text()))
    for e in errors[:20]:
        print(f"TRACE INVALID: {e}")
    return 1 if errors else 0


def _run(args: argparse.Namespace) -> int:
    from .analysis import render_series, render_table, utilization_rows
    from .core.engine import EngineConfig, run_application
    from .resilience import RunFailureError
    from .runtime import GCModel

    problems = _check_run_flags(args)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    kind, sources = _COLLECTION[args.algorithm], None
    if args.gofs is None:
        pg, collection = _generate(args, kind)
    else:
        try:
            pg, collection, sources = _open_store(args, kind)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    comp = _make_computation(args, pg.template, collection, pg)
    tracing = None
    if args.stream:
        from .observability import TraceConfig

        tracing = TraceConfig(stream_dir=args.stream)
    config = EngineConfig(
        executor=args.executor,
        gc_model=GCModel() if args.gc else GCModel.disabled(),
        tracing=tracing,
        hosts=args.hosts,
        **_resilience_config(args),
    )
    try:
        result = run_application(
            comp, pg, collection, config=config, sources=sources, resume_from=args.resume_from
        )
    except RunFailureError as exc:
        print(f"RUN FAILED: {exc.failure.reason} (timestep {exc.failure.timestep})")
        for rec in exc.partial.failure_log:
            print(f"  {rec.as_event()}")
        _record(args, exc.partial)
        return 2
    if result.failure is not None:
        print(
            f"DEGRADED RUN: {result.failure.reason} (timestep {result.failure.timestep}) — "
            "metrics below cover the recovered prefix only"
        )
    elif result.failure_log:
        print(
            f"recovered from {len(result.failure_log)} fault(s); "
            f"recovery time {result.metrics.total_recovery_s():.3f}s"
        )
    if result.degraded_partitions:
        print(
            f"QUARANTINED PARTITIONS: {result.degraded_partitions} — outputs "
            "and states exclude their contributions from the quarantine on"
        )
    if result.recovery_actions:
        respawns = sum(1 for a in result.recovery_actions if a.kind == "worker_respawn")
        cured = sum(1 for a in result.recovery_actions if a.kind == "protocol_retry")
        print(
            f"recovery provenance: {respawns} surgical respawn(s), "
            f"{cured} protocol incident(s) cured by resend"
        )
    print(render_table([result.metrics.summary()], title=f"{args.algorithm} on {args.graph}"))
    print(render_series(result.metrics.timestep_series(), label="time per timestep (s)"))
    print(render_table([r.as_row() for r in utilization_rows(result)], title="Per-partition utilization"))
    if args.algorithm == "evolve" and result.failure is None:
        (_sg, summary), = result.merge_outputs
        print(render_series(summary.num_communities, label="communities per timestep", fmt="{:d}"))
    elif args.algorithm == "stats":
        from .algorithms.statistics import stats_series_from_result

        series = stats_series_from_result(result)
        print(render_series(
            [series[t].mean for t in sorted(series)], label="mean latency per timestep"
        ))
    return _record(args, result)


def _worker(args: argparse.Namespace) -> int:
    """Serve one partition's worker agent over TCP (``--hosts`` names it).

    Blocks serving driver sessions until interrupted.  The bound address is
    announced on stdout (flushed) so orchestration scripts can scrape it —
    pass port 0 to let the OS pick a free one.
    """
    from .runtime import serve_worker

    def announce(bound: tuple[str, int]) -> None:
        print(f"tibsp worker listening on {bound[0]}:{bound[1]}", flush=True)

    try:
        serve_worker(args.listen, announce=announce)
    except KeyboardInterrupt:
        pass
    return 0


def _top(args: argparse.Namespace) -> int:
    """Follow a ``run --stream`` directory: fold its event log into a panel."""
    from .observability.top import run_top

    return run_top(
        args.dir, once=args.once, interval_s=args.interval, stall_after_s=args.stall_after
    )


def _fig5b(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .baselines import fig5b_comparison
    from .generators import paper_dataset

    rows = []
    for name in ("CARN", "WIKI"):
        template, road = paper_dataset(name, "road", args.scale, args.instances, seed=args.seed)
        rows.append(fig5b_comparison(_partition(args, template), road).as_row())
    print(render_table(rows, title="Giraph vs GoFFish (Fig 5b analogue)"))
    return 0


def _store(args: argparse.Namespace) -> int:
    from .storage import GoFS

    pg, collection = _generate(args, args.workload)
    manifest = GoFS.write_collection(
        args.root, pg, collection, dataset=_dataset(args, args.workload)
    )
    print(f"wrote GoFS store to {args.root}: {manifest['num_timesteps']} instances, "
          f"{manifest['num_partitions']} partitions, packing={manifest['packing']}, "
          f"binning={manifest['binning']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (also the ``tibsp`` console script)."""
    from .core.engine import EXECUTORS

    parser = argparse.ArgumentParser(
        prog="tibsp", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="Table 1: dataset statistics")
    _add_common(p)
    p.set_defaults(func=_datasets)

    p = sub.add_parser("edgecuts", help="Table 2: edge-cut percentages")
    _add_common(p)
    p.set_defaults(func=_edgecuts)

    p = sub.add_parser("run", help="run one algorithm")
    _add_common(p)
    p.add_argument(
        "algorithm", choices=["tdsp", "meme", "hash", "reach", "evolve", "stats"]
    )
    p.add_argument("--graph", choices=["CARN", "WIKI"], default="CARN")
    p.add_argument("--partitions", type=int, default=6)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--gc", action="store_true", help="enable the GC pause model")
    p.add_argument(
        "--executor", choices=EXECUTORS, default="serial",
        help="cluster backend (process = partition 0 in the driver, one forked agent per "
        "other partition; socket = every partition on the --hosts agents, else as process)",
    )
    p.add_argument(
        "--hosts", metavar="HOST:PORT,...", default=None,
        help="comma-separated addresses of pre-started 'tibsp worker' agents, "
        "one per partition (socket executor; omit to fork local agents)",
    )
    p.add_argument(
        "--export", metavar="PATH",
        help="write a JSON run summary, with its failure and repair records",
    )
    sto = p.add_argument_group("storage")
    sto.add_argument(
        "--gofs", metavar="DIR",
        help="serve the dataset from the GoFS store at DIR: written there first if "
        "it has no manifest.json, then opened (a store of another dataset or "
        "collection is an error)",
    )
    res = p.add_argument_group("resilience")
    res.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="write a durable checkpoint every N timesteps (0 = off)",
    )
    res.add_argument(
        "--checkpoint-dir", default="checkpoints", metavar="DIR",
        help="checkpoint directory (default: checkpoints)",
    )
    res.add_argument(
        "--resume-from", nargs="?", const=True, default=None, metavar="NAME",
        help="resume from the latest checkpoint (or a named one) in --checkpoint-dir",
    )
    res.add_argument(
        "--inject-faults", metavar="SPEC",
        help="deterministic fault plan, kind@t<T>[:s<S>|:eot]:p<P>[:d<SECONDS>][:i<INC>], "
        "e.g. 'kill@t2:p1,delay@t3:s2:p0:d0.1'; without s<S> or eot a fault "
        "fires at superstep 0, which opens the timestep (host kinds: kill, "
        "delay, fail_load, the last at s0 only; wire kinds, cured by a resend "
        "on every executor: drop_frame, dup_frame, reorder, corrupt_frame)",
    )
    res.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="recovery retries per incident (default 2)",
    )
    res.add_argument(
        "--quarantine", action="store_true",
        help="on exhausted retries, quarantine the failed partition and "
        "complete the run degraded",
    )
    res.add_argument(
        "--degrade", action="store_true",
        help="on exhausted retries, report a structured failure with partial "
        "results instead of raising",
    )
    res.add_argument(
        "--gather-timeout", type=float, default=None, metavar="S",
        help="bound each partition's reply wait per round "
        "(default: none, or 10s when faults are injected)",
    )
    p.add_argument(
        "--stream", metavar="DIR",
        help="record the run in DIR: stream its event log to DIR/events.jsonl as "
        "each round lands (watch with 'tibsp top DIR'), then write the Perfetto "
        "trace.json, manifest.json and critical_path.json beside it",
    )
    p.set_defaults(func=_run)

    p = sub.add_parser(
        "worker", help="serve one partition's worker agent over TCP (run --hosts)"
    )
    p.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="address to listen on (default 127.0.0.1:0 = any free port, "
        "announced on stdout)",
    )
    p.set_defaults(func=_worker)

    p = sub.add_parser(
        "top", help="watch a run: fold the event log of 'tibsp run --stream DIR'"
    )
    p.add_argument("dir", help="the directory passed to 'tibsp run --stream'")
    p.add_argument(
        "--once", action="store_true",
        help="render the log once and exit (exit 1 if there is none yet)",
    )
    p.add_argument(
        "--stall-after", type=float, default=5.0, metavar="S",
        help="call a run whose log is older than S seconds stalled (default 5)",
    )
    p.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh interval in seconds (default 1.0)",
    )
    p.set_defaults(func=_top)

    p = sub.add_parser("fig5b", help="Giraph vs GoFFish comparison")
    _add_common(p)
    p.add_argument("--partitions", type=int, default=6)
    p.set_defaults(func=_fig5b)

    p = sub.add_parser("store", help="write a GoFS store directory")
    _add_common(p)
    p.add_argument("root", help="store directory")
    p.add_argument("--graph", choices=["CARN", "WIKI"], default="CARN")
    p.add_argument("--workload", choices=["road", "tweets"], default="road")
    p.add_argument("--partitions", type=int, default=6)
    p.set_defaults(func=_store)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
