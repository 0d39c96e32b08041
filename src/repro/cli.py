"""Command-line interface: run the paper's experiments from a terminal.

Subcommands::

    tibsp datasets   — Table 1: generated dataset statistics
    tibsp edgecuts   — Table 2: edge-cut % for 3/6/9 partitions
    tibsp run        — run one algorithm on one dataset configuration
    tibsp worker     — serve one partition's worker agent over TCP (run --hosts)
    tibsp trace      — run one algorithm traced; write Perfetto trace + event log
    tibsp top        — watch a run: fold the event log a 'run --stream DIR' writes
    tibsp fig5b     — the Giraph-vs-GoFFish comparison
    tibsp store      — write a dataset into a GoFS store directory

All subcommands accept ``--scale`` (template vertices) and ``--seed``; they
print the same rows/series the paper's tables and figures report.  The
``repro`` console script is an alias for ``tibsp``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (
    critical_path_report,
    format_critical_path_report,
    render_series,
    render_table,
    utilization_rows,
    write_result_json,
)
from .algorithms import (
    CommunityEvolutionComputation,
    HashtagAggregationComputation,
    InstanceStatisticsComputation,
    MemeTrackingComputation,
    TDSPComputation,
    TemporalReachabilityComputation,
    largest_subgraph_in_partition,
    stats_series_from_result,
)
from .baselines import fig5b_comparison
from .core import EngineConfig, run_application
from .core.engine import EXECUTORS
from .generators import (
    PeriodicExistencePopulator,
    make_collection,
    paper_datasets,
    road_network,
    smallworld_network,
)
from .graph import AttributeSchema, AttributeSpec, GraphTemplate
from .observability import TraceConfig, run_provenance, validate_chrome_trace
from .partition import MetisLikePartitioner, compute_stats, partition_graph
from .resilience import CheckpointConfig, FaultPlan, RecoveryPolicy, RunFailureError
from .runtime import GCModel
from .storage import GoFS

__all__ = ["main"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=int, default=20_000, help="template vertex count")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--instances", type=int, default=50, help="number of graph instances")
    p.add_argument(
        "--dataset-cache",
        metavar="DIR",
        default=None,
        help="content-keyed dataset/partition cache directory (reruns at the "
        "same parameters load instead of regenerating)",
    )


def _add_problem(p: argparse.ArgumentParser, executor: str) -> None:
    """What ``run`` and ``trace`` both take; ``executor`` is the default one."""
    _add_common(p)
    p.add_argument(
        "algorithm", choices=["tdsp", "meme", "hash", "reach", "evolve", "stats"]
    )
    p.add_argument("--graph", choices=["CARN", "WIKI"], default="CARN")
    p.add_argument("--partitions", type=int, default=6)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--gc", action="store_true", help="enable the GC pause model")
    p.add_argument(
        "--executor", choices=EXECUTORS, default=executor,
        help="cluster backend (process = partition 0 in the driver, one forked agent per "
        "other partition; socket = every partition on the --hosts agents, else as process)",
    )


def _dataset_cache(args: argparse.Namespace):
    """The DatasetCache named by ``--dataset-cache``, or None."""
    path = getattr(args, "dataset_cache", None)
    if path is None:
        return None
    from .generators import DatasetCache

    return DatasetCache(path)


def _datasets(args: argparse.Namespace) -> int:
    carn = road_network(args.scale, seed=args.seed)
    wiki = smallworld_network(args.scale, seed=args.seed)
    print(render_table([carn.stats(), wiki.stats()], title="Generated graph templates (Table 1 analogue)"))
    return 0


def _edgecuts(args: argparse.Namespace) -> int:
    cache = _dataset_cache(args)
    rows = []
    for tpl in (road_network(args.scale, seed=args.seed), smallworld_network(args.scale, seed=args.seed)):
        for k in (3, 6, 9):
            pg = partition_graph(tpl, k, MetisLikePartitioner(seed=args.seed), cache=cache)
            rows.append(compute_stats(pg).as_row())
    print(render_table(rows, title="Edge cut % across partitions (Table 2 analogue)"))
    return 0


def _evolving_collection(args: argparse.Namespace):
    """A template + collection with periodic is_exists edge schedules."""
    base = (road_network if args.graph == "CARN" else smallworld_network)(
        args.scale, seed=args.seed
    )
    template = GraphTemplate(
        base.num_vertices,
        base.edge_src,
        base.edge_dst,
        directed=base.directed,
        edge_schema=AttributeSchema([AttributeSpec("is_exists", "bool", default=True)]),
        name=base.name,
    )
    populator = PeriodicExistencePopulator(template, seed=args.seed)
    return template, make_collection(template, args.instances, populator)


def _problem_setup(args: argparse.Namespace):
    """Dataset + partitioning + computation shared by ``run`` and ``trace``."""
    cache = _dataset_cache(args)
    if args.algorithm in ("reach", "evolve"):
        template, collection = _evolving_collection(args)
    else:
        data = paper_datasets(args.scale, args.instances, seed=args.seed, cache=cache)[
            args.graph
        ]
        template = data["template"]
        collection = data["road" if args.algorithm in ("tdsp", "stats") else "tweets"]
    pg = partition_graph(
        template, args.partitions, MetisLikePartitioner(seed=args.seed), cache=cache
    )
    return template, collection, pg, _make_computation(args, template, collection, pg)


def _make_computation(args: argparse.Namespace, template, collection, pg):
    if args.algorithm == "tdsp":
        return TDSPComputation(source=args.source, halt_when_stalled=True)
    if args.algorithm == "meme":
        return MemeTrackingComputation(meme=0)
    if args.algorithm == "hash":
        return HashtagAggregationComputation.for_partitioned_graph(pg, 0)
    if args.algorithm == "reach":
        return TemporalReachabilityComputation(source=args.source)
    if args.algorithm == "evolve":
        return CommunityEvolutionComputation(
            template.num_vertices, largest_subgraph_in_partition(pg, 0)
        )
    # stats
    return InstanceStatisticsComputation(
        "latency", on="edges", range_low=0.0, range_high=0.2 * collection.delta
    )


def _provenance(args: argparse.Namespace) -> dict:
    """Run arguments shared by ``--export`` summaries and trace manifests."""
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
    if args.fault_seed is not None and not args.inject_faults:
        problems.append(
            "--fault-seed seeds the fault plan's RNG and does nothing "
            "without --inject-faults"
        )
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
    kwargs: dict = {}
    if args.checkpoint_every or args.resume_from is not None:
        kwargs["checkpoint"] = CheckpointConfig(
            dir=args.checkpoint_dir, every=args.checkpoint_every or 1
        )
    if args.inject_faults:
        kwargs["faults"] = FaultPlan.parse(
            args.inject_faults,
            seed=args.fault_seed if args.fault_seed is not None else 0,
        )
    retries = {} if args.max_retries is None else {"max_retries": args.max_retries}
    exhausted = "degrade" if args.degrade else "quarantine" if args.quarantine else "raise"
    kwargs["recovery"] = RecoveryPolicy(on_exhausted=exhausted, **retries)
    if args.gather_timeout is not None:
        kwargs["gather_timeout_s"] = args.gather_timeout
    return kwargs


def _write_failure_log(path: str, result) -> None:
    import json

    payload = {
        "failure": result.failure.as_dict() if result.failure is not None else None,
        "failure_log": [rec.as_dict() for rec in result.failure_log],
        "recovery_actions": [{"kind": a.kind, **a.as_event()} for a in result.recovery_actions],
        "degraded_partitions": list(result.degraded_partitions),
        "protocol_stats": dict(result.protocol_stats),
    }
    Path(path).write_text(json.dumps(payload, indent=2))
    print(f"failure log written to {path}")


def _run(args: argparse.Namespace) -> int:
    problems = _check_run_flags(args)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    _template, collection, pg, comp = _problem_setup(args)
    config = EngineConfig(
        executor=args.executor,
        gc_model=GCModel() if args.gc else GCModel.disabled(),
        tracing=TraceConfig(stream_dir=args.stream) if args.stream else None,
        hosts=args.hosts,
        **_resilience_config(args),
    )
    sources = None
    if args.gofs is not None:
        root = Path(args.gofs)
        if not (root / "manifest.json").exists():
            manifest = GoFS.write_collection(root, pg, collection)
            print(f"wrote GoFS store to {root} (packing={manifest['packing']})")
        try:
            sources = GoFS.partition_views(root)
            sources[0].check_dataset(pg.fingerprint(len(collection)))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        result = run_application(
            comp, pg, collection, config=config, sources=sources, resume_from=args.resume_from
        )
    except RunFailureError as exc:
        print(f"RUN FAILED: {exc.failure.reason} (timestep {exc.failure.timestep})")
        for rec in exc.failure.failure_log:
            print(f"  {rec.as_dict()}")
        if args.failure_log and exc.partial is not None:
            _write_failure_log(args.failure_log, exc.partial)
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
    if args.failure_log:
        _write_failure_log(args.failure_log, result)
    if args.stream:
        print(f"event log streamed to {Path(args.stream) / 'events.jsonl'} "
              f"(watch with 'tibsp top {args.stream}')")
    print(render_table([result.metrics.summary()], title=f"{args.algorithm} on {args.graph}"))
    print(render_series(result.metrics.timestep_series(), label="time per timestep (s)"))
    print(render_table([r.as_row() for r in utilization_rows(result)], title="Per-partition utilization"))
    if args.algorithm == "evolve" and result.failure is None:
        (_sg, summary), = result.merge_outputs
        print(render_series(summary.num_communities, label="communities per timestep", fmt="{:d}"))
    elif args.algorithm == "stats":
        series = stats_series_from_result(result)
        print(render_series(
            [series[t].mean for t in sorted(series)], label="mean latency per timestep"
        ))
    if args.export:
        path = write_result_json(args.export, result, provenance=_provenance(args))
        print(f"run summary written to {path}")
    return 0


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


def _trace(args: argparse.Namespace) -> int:
    """Traced run: write Perfetto trace + JSONL event log + run manifest."""
    _template, collection, pg, comp = _problem_setup(args)
    tracing: bool | TraceConfig = True
    if args.stream:
        tracing = TraceConfig(stream_dir=args.out)
    config = EngineConfig(
        executor=args.executor,
        gc_model=GCModel() if args.gc else GCModel.disabled(),
        tracing=tracing,
    )
    result = run_application(comp, pg, collection, config=config)

    manifest = _provenance(args)
    manifest["barrier_s"] = config.cost_model.barrier_cost(pg.num_partitions)
    manifest["metrics"] = result.metrics.summary()
    paths = result.trace.write(Path(args.out), manifest)

    errors = validate_chrome_trace(result.trace.chrome_trace())
    print(render_table([result.metrics.summary()], title=f"{args.algorithm} on {args.graph} (traced)"))
    print(f"trace:    {paths['trace']}  (open in https://ui.perfetto.dev)")
    print(f"events:   {paths['events']}")
    print(f"manifest: {paths['manifest']}")
    if args.stream:
        print(f"event log was streamed to {args.out} during the run")
    if args.report:
        import json

        report = critical_path_report(result.metrics)
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(json.dumps(report, indent=2))
        print(f"critical-path report written to {args.report}")
        print(format_critical_path_report(report))
    if errors:
        print("TRACE VALIDATION FAILED:")
        for e in errors[:20]:
            print(f"  {e}")
    else:
        print("trace valid")
    return 1 if errors else 0


def _top(args: argparse.Namespace) -> int:
    """Follow a ``run --stream`` directory: fold its event log into a panel."""
    from .observability.top import run_top

    return run_top(
        args.dir, once=args.once, interval_s=args.interval, stall_after_s=args.stall_after
    )


def _fig5b(args: argparse.Namespace) -> int:
    cache = _dataset_cache(args)
    data = paper_datasets(args.scale, args.instances, seed=args.seed, cache=cache)
    rows = []
    for name in ("CARN", "WIKI"):
        pg = partition_graph(
            data[name]["template"],
            args.partitions,
            MetisLikePartitioner(seed=args.seed),
            cache=cache,
        )
        rows.append(fig5b_comparison(pg, data[name]["road"]).as_row())
    print(render_table(rows, title="Giraph vs GoFFish (Fig 5b analogue)"))
    return 0


def _store(args: argparse.Namespace) -> int:
    cache = _dataset_cache(args)
    data = paper_datasets(args.scale, args.instances, seed=args.seed, cache=cache)[args.graph]
    kind = "road" if args.workload == "road" else "tweets"
    pg = partition_graph(
        data["template"],
        args.partitions,
        MetisLikePartitioner(seed=args.seed),
        cache=cache,
    )
    manifest = GoFS.write_collection(args.root, pg, data[kind])
    print(f"wrote GoFS store to {args.root}: {manifest['num_timesteps']} instances, "
          f"{manifest['num_partitions']} partitions, packing={manifest['packing']}, "
          f"binning={manifest['binning']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (also the ``tibsp`` console script)."""
    parser = argparse.ArgumentParser(prog="tibsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="Table 1: dataset statistics")
    _add_common(p)
    p.set_defaults(func=_datasets)

    p = sub.add_parser("edgecuts", help="Table 2: edge-cut percentages")
    _add_common(p)
    p.set_defaults(func=_edgecuts)

    p = sub.add_parser("run", help="run one algorithm")
    _add_problem(p, executor="serial")
    p.add_argument(
        "--hosts", metavar="HOST:PORT,...", default=None,
        help="comma-separated addresses of pre-started 'tibsp worker' agents, "
        "one per partition (socket executor; omit to fork local agents)",
    )
    p.add_argument("--export", metavar="PATH", help="write a JSON run summary")
    sto = p.add_argument_group("storage")
    sto.add_argument(
        "--gofs", metavar="DIR",
        help="serve instances from a GoFS store at DIR (written there first if "
        "no manifest.json exists yet)",
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
        "--fault-seed", type=int, default=None,
        help="fault plan RNG seed (requires --inject-faults; default 0)",
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
    res.add_argument(
        "--failure-log", metavar="PATH", help="write the failure log as JSON"
    )
    p.add_argument(
        "--stream", metavar="DIR",
        help="trace the run and stream its event log to DIR/events.jsonl as "
        "each round lands (watch with 'tibsp top DIR')",
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
        "trace", help="traced run: Perfetto trace + event log + manifest"
    )
    # Traces what people run: real worker concurrency on every track.
    _add_problem(p, executor="process")
    p.add_argument(
        "--out", metavar="DIR", default="trace-out",
        help="output directory for trace.json / events.jsonl / manifest.json",
    )
    p.add_argument(
        "--stream", action="store_true",
        help="stream the event log to --out incrementally during the run, so "
        "a killed run still leaves a valid events.jsonl behind",
    )
    p.add_argument(
        "--report", metavar="PATH",
        help="write the critical-path / straggler-attribution report as JSON "
        "and print its summary",
    )
    p.set_defaults(func=_trace)

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
