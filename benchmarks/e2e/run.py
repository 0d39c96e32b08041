#!/usr/bin/env python3
"""bench_e2e: real-wall benchmark of the paper's cells with a per-layer budget.

    python benchmarks/e2e/run.py [--seed 1] [--out FILE]     the gated workloads, both modes
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --selftest

Closed loop, one client, one operation at a time.  With ``--workload`` and
``--trace`` the run happens in this process and the last line of standard
output is one JSON object: the end-to-end metrics (``--trace 0``, tracing
off) or the per-layer metrics (``--trace 1``).  Otherwise every selected
workload runs in its own subprocess, in both modes unless ``--trace`` picks
one; without ``--workload`` those are the workloads ``BENCHMARK.json`` lists,
the gated ones, and ``--workload`` also takes the others in ``workloads.py``.
Names, units and bounds live in ``BENCHMARK.json`` at the root of the
repository; ``README.md`` beside this file explains them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
HISTORY_PATH = HERE / "history" / "e2e.jsonl"
MIN_OPS = 3  #: per input set
SETUP_IMPORTS = 3  #: interpreters that time the import; ``setup_s`` holds their median
PROBE_SHARE = 0.2  #: speed-probe seconds before an operation, as a share of the last one's

#: Seconds a timing grows per second the hypervisor stole from the guest
#: during it; ``machine.quiet_seconds`` fits the value inside the range.
#: One thread loses exactly what is stolen.  Two workers at a barrier lose
#: more, because each waits for the other's stolen time and then refills its
#: caches (1.2 was measured on the process executor).  CPU seconds hold none
#: of it on the serial executor and about half on the process executor.
ONE_THREAD = (1.0, 1.0)
WALL_PER_STOLEN = (1.0, 1.5)
CPU_PER_STOLEN = (0.0, 1.0)
SELFTEST_VERTICES, SELFTEST_INSTANCES, SELFTEST_OPS = 2_000, 5, 2

#: glibc hands freed blocks of 128 KiB and more straight back to the kernel,
#: and this VM's balloon reports free guest memory to the host, so the next
#: large allocation faults every page in again, at a host-side cost measured
#: here to vary 25-fold (0.08 to 2 s per 400 MB; 1 to 9 s of system time in one
#: 200k set-up pass whose user time stays at 4.3 s).  Keeping freed memory in
#: the process takes that lottery out of every timing.  malloc reads these
#: when the interpreter starts, hence the re-exec.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "4294967296", "MALLOC_TRIM_THRESHOLD_": "4294967296"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **MALLOC_ENV})

# Importing the program is the first part of every workload's set-up.
sys.path.insert(0, str(ROOT / "src"))
_t0 = time.perf_counter()
try:
    import layers
    import machine
    import workloads as wl
    from repro.observability import run_provenance
except ModuleNotFoundError as exc:
    sys.exit(f"bench_e2e: cannot import the program from {ROOT / 'src'}: {exc}")
IMPORT_S = time.perf_counter() - _t0

#: Wall against the serial executor on the same store, timed in the traced
#: run.  Each ratio belongs to one workload and reads 0 on the others; the
#: exponent turns process/serial into the speed-up serial/process.  They are
#: per-layer metrics so that a faster serial baseline is never a regression.
VS_SERIAL = {
    "runtime.process_overhead_20k": ("tdsp_carn_20k_process", 1),
    "runtime.socket_overhead_20k": ("tdsp_carn_20k_socket", 1),
    "runtime.process_speedup_200k": ("meme_wiki_200k_process", -1),
}


# -- one workload, in this process -----------------------------------------------------


def cpu_seconds() -> float:
    """User and system seconds of this process and of the workers it has reaped.

    ``getrusage`` reads microseconds; ``os.times()`` counts 10 ms ticks,
    which at 0.1 s an operation reads the same on every run.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Checker:
    """Runs operations, counts them, and counts the ones that went wrong.

    An operation fails when it raises, leaves a child process behind, or
    returns a result whose digest differs from that of the first operation
    on the same input set, which is the one compared with the oracle.
    """

    def __init__(self, op: wl.Operation, *, corrupt: bool = False) -> None:
        self.op = op
        self.attempted = 0
        self.failed = 0
        self.expected: dict[int, str] = {}  #: digest by input set
        self._corrupt = corrupt  #: self-test: spoil the next digest compared

    def run(self, slot: int, **kw):
        """One measured operation: ``(result, wall_s, cpu_s, stolen_s)``, or ``None`` if it failed."""
        self.op.prepare(slot)
        self.attempted += 1
        stolen0, cpu0, t0 = machine.stolen_seconds(), cpu_seconds(), time.perf_counter()
        try:
            result = self.op.run(slot, **kw)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        stolen = machine.stolen_seconds() - stolen0
        left = multiprocessing.active_children()
        got = wl.digest(self.op.w, result, self.op.inputs[slot].template.num_vertices)
        if slot not in self.expected:
            self.expected[slot] = got
        elif self._corrupt:
            got, self._corrupt = "corrupted-" + got, False
        if left or got != self.expected[slot]:
            print(f"  FAILED operation {self.attempted}: children left {left}, digest {got}")
            self.failed += 1
            return None
        return result, wall, cpu, stolen


def import_seconds(probe: machine.SpeedProbe) -> float:
    """Seconds, at the reference speed, that importing the program takes.

    The median over ``SETUP_IMPORTS`` fresh interpreters; this process's own
    import cannot be used, because the probe needs NumPy imported first.
    """
    code = (
        "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
        "import layers, workloads; print(time.perf_counter() - t0)"
    )
    cmd = [sys.executable, "-c", code, str(HERE), str(ROOT / "src")]
    samples = []
    for _ in range(SETUP_IMPORTS):
        # Several bursts: the first one after waiting for a child reads slow.
        slow, stolen0 = probe.slowdown(0.15), machine.stolen_seconds()
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        samples.append((float(out), machine.stolen_seconds() - stolen0, slow))
    return machine.quiet_seconds([samples], ONE_THREAD)[0]


def run_workload(
    w: wl.Workload, seed: int, seconds: float, traced: bool, workdir: Path,
    *, import_s: float = IMPORT_S, min_ops: int = MIN_OPS, corrupt: bool = False,
) -> dict:
    """Set up, warm up, measure and verify one workload; return its result.

    ``import_s`` is the first part of ``setup_s``: importing the program.
    Every gated timing is divided by the machine's slowdown beside it (see
    ``machine.py``); the per-layer timings are as the clock read them.
    """
    print(f"== {w.name} seed={seed} seconds={seconds:g} trace={int(traced)}")
    slots = range(w.input_sets)

    # Set-up: what has to exist before the first operation -- the program
    # imported, and one input set generated, partitioned and written (the
    # median over the input sets).  For the cold workload the second part is
    # the operation, and set-up is the import.
    op = wl.Operation(w, seed, workdir)
    probe = machine.SpeedProbe()
    setup_s = import_s
    passes = []
    if not w.cold:
        for slot in slots:
            # Each pass is rehearsed and then timed.  This guest hands memory
            # it has had free for two seconds back to its host, and faulting
            # it in again costs 0.02 to 1.5 s of system time for the same 90 MB
            # of stores; the rehearsal's store, just deleted, is memory the
            # timed pass gets without asking the host.
            rehearsal = workdir / "rehearsal"
            wl.build_inputs(w, op.sub_seed(slot), rehearsal)
            shutil.rmtree(rehearsal)
            slow, stolen0 = probe.slowdown(), machine.stolen_seconds()
            op.build(slot)
            passes.append((op.ingests[-1].total_s, machine.stolen_seconds() - stolen0, slow))
        # Write-back of the stores must not compete with the timed operations.
        os.sync()
        setup_s += machine.quiet_seconds([passes], ONE_THREAD)[0]

    # One warm-up operation per input set; these are also the ones the
    # oracle checks, afterwards.
    check = Checker(op, corrupt=corrupt)
    firsts = []
    for slot in slots:
        warm = check.run(slot)
        if warm is None:
            sys.exit("bench_e2e: a warm-up operation failed")
        firsts.append((op.inputs[slot], warm[0]))

    deadline = time.perf_counter() + seconds
    if traced:
        metrics, detail = measure_layers(w, seed, check, deadline, min_ops)
    else:
        work = [inputs.template.num_edges * result.timesteps_executed for inputs, result in firsts]
        metrics, detail = measure_end_to_end(check, probe, deadline, min_ops, work)
        metrics["setup_s"] = setup_s

    t0 = time.perf_counter()
    agrees = all(wl.oracle_agrees(w, inputs, result) for inputs, result in firsts)
    verify_s = time.perf_counter() - t0
    if not agrees:
        print("  FAILED: the oracle disagrees with the first result on an input set")
        check.failed = check.attempted
    return {
        "correct": agrees and check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
        "detail": {
            "workload": w.name, "seed": seed, "trace": int(traced), "verify_s": verify_s,
            "setup_import_s": import_s,
            "setup_passes_raw_s": [seconds for seconds, _stolen, _slow in passes],
            "digest": hashlib.sha256("".join(check.expected[s] for s in slots).encode()).hexdigest(),
            **detail,
        },
    }


def measure_end_to_end(
    check: Checker, probe: machine.SpeedProbe, deadline: float, min_ops: int, work: list[int]
) -> tuple[dict, dict]:
    """Tracing off: operations back to back, input sets in turn, until the deadline.

    Each operation follows a speed probe about a fifth as long as itself.
    A timing is the median of what one input set's operations take on a
    quiet machine (``machine.quiet_seconds``), averaged over the input sets.
    """
    walls = [[] for _ in work]
    cpus = [[] for _ in work]
    raw, slows, stolen = [], [], 0.0
    while min(map(len, walls)) + check.failed < min_ops or time.perf_counter() < deadline:
        slot = check.attempted % len(work)
        slow = probe.slowdown(PROBE_SHARE * raw[-1] if raw else 0.0)
        done = check.run(slot)
        if done is not None:
            walls[slot].append((done[1], done[3], slow))
            cpus[slot].append((done[2], done[3], slow))
            raw.append(done[1])
            slows.append(slow)
            stolen += done[3]
    if not all(walls):
        sys.exit("bench_e2e: every timed operation on one input set failed")
    op_s = machine.quiet_seconds(walls, WALL_PER_STOLEN)
    metrics = {
        "op_s_p50": statistics.fmean(op_s),
        "cpu_s_p50": statistics.fmean(machine.quiet_seconds(cpus, CPU_PER_STOLEN)),
        "edge_timesteps_per_s": statistics.fmean(n / s for n, s in zip(work, op_s)),
        # Read before the oracle runs, so that it is the program's memory.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # As the clock read them, input sets pooled: what the correction started from.
    detail = {
        "samples": len(raw),
        "raw_op_s_p50": statistics.median(raw),
        "slowdown_p50": statistics.median(slows),
        "stolen_frac": stolen / sum(raw),
    }
    if len(raw) >= 50:
        # The highest percentile with ten samples beyond it; a diagnostic.
        detail["raw_op_s_p80"] = statistics.quantiles(raw, n=5)[3]
    return metrics, detail


def measure_layers(
    w: wl.Workload, seed: int, check: Checker, deadline: float, min_ops: int
) -> tuple[dict, dict]:
    """Probes, then untraced, traced and serial-baseline operations interleaved."""
    op = check.op
    serial = w.executor == "serial"
    probes = {
        **layers.probe_scan(op.inputs[0]),
        **layers.probe_kernel(w, op.inputs[0]),
        **layers.probe_messages(seed),
    }
    # Walls by input set, so that ratios compare operations on the same inputs.
    plain = [[] for _ in op.inputs]
    baseline = [[] for _ in op.inputs]
    folds = []
    rounds = 0
    # Interleaved, so that drift hits every kind of operation alike.
    while len(folds) + check.failed < min_ops * w.input_sets or time.perf_counter() < deadline:
        slot = rounds % w.input_sets
        rounds += 1
        done = check.run(slot)
        if done is not None:
            plain[slot].append(done[1])
        done = check.run(slot, tracing=True)
        if done is not None:
            ingest = op.ingests[-1] if w.cold else None
            fold = layers.fold_trace(done[0], done[1], serial=serial, ingest=ingest)
            folds.append((fold, slot))
        if not serial:
            done = check.run(slot, executor="serial")
            if done is not None:
                baseline[slot].append(done[1])
    # The operation with the median traced wall, whole: its layers and its
    # overhead sum to its wall exactly, and its counts are one input set's.
    folds.sort(key=lambda f: f[0]["core.engine.traced_wall_s"])
    fold, slot = folds[len(folds) // 2] if folds else ({}, 0)
    if not (plain[slot] and folds and (serial or baseline[slot])):
        sys.exit("bench_e2e: every operation of one kind failed")
    op_s = statistics.median(plain[slot])
    vs_serial = 0.0 if serial else op_s / statistics.median(baseline[slot])
    metrics = {
        **probes,
        **layers.ingest_layers(op.ingests, op.inputs[slot]),
        # After the ingest medians, so that a cold operation's budget holds
        # its own ingest seconds.
        **fold,
        "runtime.cluster.worker_rss_mb": 0.0 if serial
        else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "core.engine.per_round_us": 1e6 * op_s / fold["core.rounds"],
        "runtime.cost.sim_real_ratio": fold["runtime.cost.sim_wall_s"] / op_s,
        "observability.trace_overhead_frac": (fold["core.engine.traced_wall_s"] - op_s) / op_s,
    }
    for name, (owner, exponent) in VS_SERIAL.items():
        metrics[name] = vs_serial**exponent if w.name == owner else 0.0
    residual = layers.budget_residual(fold, serial=serial, cold=w.cold)
    return metrics, {"samples": len(folds), "budget_residual_s": residual}


def emit(result: dict, spec: dict) -> int:
    """Print one run's metrics by name with units, then the result line."""
    kind = "per_layer" if result["detail"]["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(result["metrics"]):
        sys.exit(
            "bench_e2e: emitted names differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(result['metrics']))}"
        )
    for name, unit in units.items():
        print(f"  {name:<40} {result['metrics'][name]:>16.6g} {unit}")
    print("detail " + json.dumps(result["detail"]))
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = {n: {"value": result["metrics"][n], "unit": u} for n, u in units.items()}
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


@contextlib.contextmanager
def work_directory(parent: str | None):
    """A fresh directory under ``--workdir``, removed on exit."""
    parent_path = Path(parent) if parent else HERE / ".work"
    parent_path.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent_path))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def single(args: argparse.Namespace, spec: dict) -> int:
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"bench_e2e: unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}")
    import_s = import_seconds(machine.SpeedProbe())
    with work_directory(args.workdir) as workdir:
        result = run_workload(
            wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir,
            import_s=import_s,
        )
    return emit(result, spec)


# -- every workload, each in its own process -------------------------------------------


def full(args: argparse.Namespace, spec: dict) -> int:
    """Run the workloads in subprocesses; print the tables; write ``--out`` and history."""
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    modes = [0, 1] if args.trace is None else [args.trace]
    runs, status = [], 0
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            for trace in modes:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
                if args.workdir:
                    cmd += ["--workdir", args.workdir]
                child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
                sys.stdout.write(child.stdout)
                lines = child.stdout.strip().splitlines()
                if child.returncode not in (0, 1) or len(lines) < 2:
                    print(f"bench_e2e: {name} trace={trace} exited {child.returncode} without a result")
                    status = 1
                    continue
                status |= child.returncode
                line = json.loads(lines[-1])
                runs.append(
                    {
                        **json.loads(lines[-2].removeprefix("detail ")),
                        "correct": line["correct"],
                        "attempted": line["attempted"],
                        "failed": line["failed"],
                        "metrics": {n: m["value"] for n, m in line["metrics"].items()},
                    }
                )
    status |= report(runs, spec)

    envelope = {
        "schema": "tibsp-bench-v1",
        "schema_version": 1,
        "bench": "e2e",
        "provenance": run_provenance(
            seed=args.seed, repeat=args.repeat, seconds=args.seconds, nproc=os.cpu_count()
        ),
        "results": {"runs": runs},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(envelope, indent=1, sort_keys=True) + "\n")
    if not args.workload and args.trace is None:
        # A full run: one more point on the trajectory.
        HISTORY_PATH.parent.mkdir(exist_ok=True)
        with HISTORY_PATH.open("a") as fh:
            fh.write(json.dumps(envelope, sort_keys=True) + "\n")
    return status


#: The layers that partition a traced operation's wall: host spans on the
#: serial executor, ship and barrier on the others (barrier idle is the part
#: of barrier beyond the busiest host, shown beside it, not added).
BUDGET_COLUMNS = (
    "storage.load_s", "runtime.host.compute_s", "runtime.host.send_flush_s",
    "runtime.host.eot_s", "runtime.host.merge_s", "runtime.cluster.ship_s",
    "runtime.cluster.barrier_s", "runtime.cluster.barrier_idle_s",
    "core.engine.overhead_s", "core.engine.unattributed_frac",
)


def report(runs: list[dict], spec: dict) -> int:
    """The end-to-end table, the layer budget, and the cross-workload digest check."""
    e2e = [m["name"] for m in spec["end_to_end"]]
    print("\n== end to end (tracing off)")
    print(f"{'workload':<24}{'seed':>5}" + "".join(f"{n:>22}" for n in e2e) + f"{'fail_frac':>11}{'n':>5}")
    for r in runs:
        if r["trace"] == 0:
            print(
                f"{r['workload']:<24}{r['seed']:>5}"
                + "".join(f"{r['metrics'][n]:>22.6g}" for n in e2e)
                + f"{r['failed'] / r['attempted']:>11.3g}{r['samples']:>5}"
            )
    print("\n== layer budget of the median traced operation (seconds)")
    print(f"{'workload':<24}{'traced_wall_s':>14}{'ingest_s':>10}"
          + "".join(f"{n.split('.')[-1]:>19}" for n in BUDGET_COLUMNS) + f"{'residual_s':>12}")
    for r in runs:
        if r["trace"] == 1:
            m = r["metrics"]
            # Ingest is inside the operation on the cold workload only.
            ingest = sum(m[n] for n in layers.INGEST_SECONDS) if wl.WORKLOADS[r["workload"]].cold else 0.0
            print(
                f"{r['workload']:<24}{m['core.engine.traced_wall_s']:>14.4f}{ingest:>10.4f}"
                + "".join(f"{m[n]:>19.4f}" for n in BUDGET_COLUMNS)
                + f"{r['budget_residual_s']:>12.1e}"
            )
    status = 0
    for group in wl.SAME_DIGEST:
        for seed in sorted({r["seed"] for r in runs}):
            digests = {r["workload"]: r["digest"] for r in runs if r["workload"] in group and r["seed"] == seed}
            if len(digests) > 1:
                same = len(set(digests.values())) == 1
                print(f"digests of {', '.join(digests)} (seed {seed}): {'equal' if same else 'DIFFER'}")
                status |= not same
    return status


# -- comparing two sets of runs --------------------------------------------------------


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median; 0 below two values."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def load_runs(path: str) -> dict[str, list[dict]]:
    """The untraced runs of an ``--out`` file, by workload."""
    by_workload: dict[str, list[dict]] = {}
    for r in json.loads(Path(path).read_text())["results"]["runs"]:
        if r["trace"] == 0:
            by_workload.setdefault(r["workload"], []).append(r)
    return by_workload


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Per (workload, end-to-end metric): is B worse than A by more than the bound?"""
    a, b = load_runs(path_a), load_runs(path_b)
    status = 0
    print(f"{'workload':<26}{'metric':<22}{'A median':>14}{'B median':>14}{'worse by':>10}"
          f"{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict")
    for name in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in a[name]]
            vb = [r["metrics"][m["name"]] for r in b[name]]
            med_a, med_b = statistics.median(va), statistics.median(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (med_b - med_a) / med_a
            spread_a, spread_b = spread(va), spread(vb)
            if max(spread_a, spread_b) > m["bound"]:
                # Too noisy to call, unless every run of B beats every run of A.
                all_better = max(sign * v for v in vb) < min(sign * v for v in va)
                verdict = "better" if all_better else "unresolved"
            elif worse > m["bound"]:
                verdict, status = "REGRESSION", 1
            else:
                verdict = "ok"
            print(f"{name:<26}{m['name']:<22}{med_a:>14.6g}{med_b:>14.6g}{worse:>+10.1%}"
                  f"{m['bound']:>7.0%}{spread_a:>10.1%}{spread_b:>10.1%}  {verdict}")
        fail_a = sum(r["failed"] for r in a[name]) / sum(r["attempted"] for r in a[name])
        fail_b = sum(r["failed"] for r in b[name]) / sum(r["attempted"] for r in b[name])
        verdict = "ok"
        if fail_b > fail_a:
            verdict, status = "REGRESSION", 1
        print(f"{name:<26}{'fail_frac':<22}{fail_a:>14.6g}{fail_b:>14.6g}{'':>51}  {verdict}")
    for name in sorted(set(a) ^ set(b)):
        print(f"{name:<26}only in one set")
        status = 1
    return status


# -- self-test -------------------------------------------------------------------------


def selftest(spec: dict) -> int:
    """Every workload, gated or not, at toy size: names match BENCHMARK.json, and a bad digest is caught."""
    if not {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS):
        sys.exit("bench_e2e: BENCHMARK.json names a workload that workloads.py does not define")
    t0 = time.perf_counter()
    toy = [
        dataclasses.replace(
            w, vertices=SELFTEST_VERTICES, instances=SELFTEST_INSTANCES, input_sets=min(2, w.input_sets)
        )
        for w in wl.WORKLOADS.values()
    ]
    with work_directory(None) as workdir:
        for i, w in enumerate(toy):
            for traced in (False, True):
                sub = workdir / f"{i}{int(traced)}"
                sub.mkdir()
                result = run_workload(w, 1, 0.0, traced, sub, min_ops=SELFTEST_OPS)
                if emit(result, spec) != 0:
                    sys.exit(f"bench_e2e: {w.name} failed its self-test")
        if not wl.certificate_matches_reference(toy[0], 1, workdir / "certificate"):
            sys.exit("bench_e2e: the TDSP certificate disagrees with the reference oracle")
        sub = workdir / "corrupt"
        sub.mkdir()
        bad = run_workload(toy[0], 1, 0.0, False, sub, min_ops=SELFTEST_OPS, corrupt=True)
        if bad["failed"] == 0 or emit(bad, spec) == 0:
            sys.exit("bench_e2e: a corrupted digest went unnoticed")
    print(f"selftest ok in {time.perf_counter() - t0:.1f} s")
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="only this workload, gated or not; with --trace, run it in this process and end with the result line")
    parser.add_argument("--seed", type=int, default=1, help="feeds every generator and the partitioner")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1, help="run seeds seed..seed+repeat-1, each workload in a subprocess")
    parser.add_argument("--out", help="write the runs to this file as one tibsp-bench-v1 envelope")
    parser.add_argument("--workdir", help="parent of the temporary stores (default: benchmarks/e2e/.work)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two --out files against the bounds")
    parser.add_argument("--selftest", action="store_true", help="every workload at toy size, under 30 s")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if len(os.sched_getaffinity(0)) < 2:
        sys.exit("bench_e2e: needs at least 2 CPUs, because the process and socket cells run two workers")
    if args.selftest:
        return selftest(spec)
    if args.workload and args.trace is not None and args.repeat == 1 and not args.out:
        # What a driver calls, and what full() calls for each of its runs.
        return single(args, spec)
    return full(args, spec)


if __name__ == "__main__":
    sys.exit(main())
