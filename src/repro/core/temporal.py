"""Temporally parallel execution of independent / eventually dependent runs.

Section II-D: for the independent pattern "we can exploit both spatial
concurrency across subgraphs and temporal concurrency across instances", and
likewise for the eventually dependent pattern up to the Merge.  The paper
notes this is *not* exploited by GoFFish ("there is the possibility of
pleasingly parallelizing each timestep before the merge.  However, this is
currently not exploited") — which is why HASH scales worst in Fig 5a.  This
module implements that missing piece.

``run_temporally_parallel`` drives W independent clusters from a shared
timestep queue: each worker thread executes whole BSP timesteps (all
supersteps) for the instances it claims.  Because the patterns forbid
temporal messages, timesteps never interact; merge messages buffered on each
worker's hosts are gathered onto the primary cluster before the Merge BSP.

The returned :class:`~repro.core.results.AppResult` carries the usual
aggregate metrics plus ``simulated_makespan`` — the pipelined wall-clock
(max over workers of the walls of their timesteps, plus the merge), which is
what a platform exploiting temporal concurrency would achieve.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Iterable, Sequence

from ..resilience.faults import AT_BEGIN, AT_EOT
from ..runtime.cluster import LocalCluster, raise_first_failure
from ..runtime.host import RunMeta
from ..runtime.metrics import PHASE_COMPUTE, PHASE_MERGE, LoadRecord, MetricsCollector, StepRecord
from .computation import TimeSeriesComputation
from .messages import Message, MessageFrame, frames_from_deliveries, route_frames
from .results import AppResult

__all__ = ["run_temporally_parallel", "pipelined_makespan"]


def pipelined_makespan(
    timestep_walls: Sequence[float], workers: int, merge_wall: float = 0.0
) -> float:
    """Simulated makespan of scheduling per-timestep walls onto ``workers``.

    Longest-processing-time-first greedy assignment — the contention-free
    schedule a platform with one sub-cluster per concurrent timestep would
    achieve.  Use this (with walls from a *sequential* run) to quantify the
    temporal-parallelism opportunity; the makespan measured by
    :func:`run_temporally_parallel` itself reflects this process's real
    thread contention (GIL), which a distributed deployment would not pay.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    loads = [0.0] * workers
    for wall in sorted(timestep_walls, reverse=True):
        loads[loads.index(min(loads))] += wall
    return max(loads) + merge_wall if loads else merge_wall


def _run_one_timestep(
    cluster,
    split,
    metrics: MetricsCollector,
    lock: threading.Lock,
    result_outputs: list,
    t: int,
    input_msgs: dict[int, list[Message]],
    max_supersteps: int,
) -> float:
    """Run the full BSP for one instance; returns its wall-clock contribution."""
    begin = raise_first_failure(
        cluster.run_round("begin", t, AT_BEGIN, [0.0] * cluster.num_partitions)
    )
    with lock:
        for r in begin:
            metrics.fold(LoadRecord(t, r.partition, r.load_s))

    per_part = split(input_msgs)
    superstep = 0
    outputs: list = []
    while True:
        if superstep >= max_supersteps:
            raise RuntimeError(f"timestep {t} exceeded max_supersteps")
        step_results = raise_first_failure(
            cluster.run_round("superstep", t, superstep, per_part)
        )
        frames: list[MessageFrame] = []
        with lock:
            for r in step_results:
                metrics.fold(StepRecord.of(PHASE_COMPUTE, t, superstep, r))
        for r in step_results:
            frames.extend(r.frames)
            outputs.extend(r.outputs)
        per_part = route_frames(frames, cluster.num_partitions)
        superstep += 1
        if not frames and all(
            r.all_halted and not r.has_pending_local for r in step_results
        ):
            break

    eot = raise_first_failure(cluster.run_round("eot", t, AT_EOT, None))
    with lock:
        for r in eot:
            metrics.fold(StepRecord.of(PHASE_COMPUTE, t, superstep, r))
    for r in eot:
        outputs.extend(r.outputs)
    with lock:
        result_outputs.extend(outputs)
    return metrics.timestep_wall(t)


def run_temporally_parallel(
    pg,
    collection,
    computation: TimeSeriesComputation,
    *,
    workers: int,
    inputs: Iterable[tuple[int, Any]] | None = None,
    timestep_range: tuple[int, int] | None = None,
    cost_model=None,
    max_supersteps: int = 100_000,
    collect_states: bool = True,
) -> AppResult:
    """Execute a temporally parallel pattern with ``workers`` concurrent timesteps.

    Raises ``ValueError`` for sequentially dependent computations — their
    timesteps cannot overlap by definition.
    """
    import numpy as np

    from ..runtime.cost import CostModel
    from .engine import TIBSPEngine  # reused for input grouping / routing

    pattern = computation.pattern
    if not pattern.temporally_parallel:
        raise ValueError(
            "temporal parallelism requires the independent or eventually "
            f"dependent pattern, not {pattern.name}"
        )
    if workers < 1:
        raise ValueError("workers must be >= 1")
    start, stop = timestep_range or (0, len(collection))
    if not 0 <= start <= stop <= len(collection):
        raise ValueError(f"timestep range [{start}, {stop}) out of bounds")

    cost_model = cost_model or CostModel()
    meta = RunMeta(pattern, stop, collection.delta, collection.t0)
    metrics = MetricsCollector(
        pg.num_partitions, barrier_s=cost_model.barrier_cost(pg.num_partitions)
    )
    result = AppResult(metrics=metrics)
    lock = threading.Lock()

    sg_part = np.asarray([sg.partition_id for sg in pg.subgraphs], dtype=np.int64)

    def split(deliveries: dict[int, list[Message]]):
        """Frame a driver-held delivery map for superstep-0 scatter."""
        return frames_from_deliveries(deliveries, sg_part, pg.num_partitions)

    input_msgs = TIBSPEngine._as_input_messages(inputs)
    clusters = [
        LocalCluster(pg, computation, meta, collection=collection, cost_model=cost_model)
        for _ in range(workers)
    ]

    tasks: queue.SimpleQueue = queue.SimpleQueue()
    for t in range(start, stop):
        tasks.put(t)
    per_worker_wall = [0.0] * workers
    errors: list[BaseException] = []

    def worker(idx: int) -> None:
        cluster = clusters[idx]
        while True:
            try:
                t = tasks.get_nowait()
            except queue.Empty:
                return
            try:
                per_worker_wall[idx] += _run_one_timestep(
                    cluster, split, metrics, lock, result.outputs, t,
                    input_msgs, max_supersteps,
                )
            except BaseException as exc:  # propagate to the caller
                errors.append(exc)
                return

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
    result.timesteps_executed = stop - start
    result.outputs.sort(key=lambda rec: rec[0])  # timestep order, like serial

    # ---- merge phase on the primary cluster -----------------------------------------
    if pattern.has_merge:
        primary = clusters[0]
        for cluster in clusters[1:]:
            for host, primary_host in zip(cluster.hosts, primary.hosts):
                primary_host.absorb_merge_inbox(host.drain_merge_inbox())
        per_part: list[list[MessageFrame]] = [[] for _ in range(pg.num_partitions)]
        superstep = 0
        while True:
            if superstep >= max_supersteps:
                raise RuntimeError("merge phase exceeded max_supersteps")
            step_results = raise_first_failure(
                primary.run_round("merge", -1, superstep, per_part)
            )
            frames: list[MessageFrame] = []
            for r in step_results:
                metrics.fold(StepRecord.of(PHASE_MERGE, -1, superstep, r))
                frames.extend(r.frames)
                result.merge_outputs.extend((sg, rec) for (_t, sg, rec) in r.outputs)
            per_part = route_frames(frames, pg.num_partitions)
            superstep += 1
            if not frames and all(
                r.all_halted and not r.has_pending_local for r in step_results
            ):
                break

    if collect_states:
        result.states = clusters[0].final_states()
    for cluster in clusters:
        cluster.shutdown()

    # Pipelined makespan: the slowest worker's timesteps gate the run.
    result.simulated_makespan = max(per_worker_wall) + metrics.merge_wall()
    return result
