"""Deleted names stay deleted: one table of the patterns no change may bring back.

Each row is a ``grep -rnE PATTERN PATHS`` that must find nothing, with the
paths (relative to the repository root) and the file-name exclusion it was
written with; its id names the change that deleted what the pattern finds.
Patterns are extended regular expressions, matched line by line; the one
``\\(``-escaped in ``a-timestep-costs-what-the-wave-touches`` was a fixed
string in basic syntax.  Directories are searched recursively, skipping
``__pycache__``: a compiled file carries the names of the source it was
compiled from, and the source is searched.
"""

from __future__ import annotations

import fnmatch
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EVERYWHERE = ("src/", "docs/", "README.md")

#: (id, pattern, paths, excluded file-name glob)
DELETED = [
    ("one-way-to-recover",
     r"respawn_all|rollback_sources|purge_rolled_back_events|purge_load_events"
     r"|invalidate_prefetch|recovery[-_]mode",
     EVERYWHERE, None),
    # `ctx.take_vertices` / `ctx.take_edges` gather a subgraph's rows from the
    # pack; `*_column(name)[rows]` would build the whole column per host per
    # timestep.  Only the single-process oracles read columns.
    ("gofs-moves-each-byte-once",
     r"(vertex|edge)_column\(", ("src/repro/algorithms/",), "reference.py"),
    # Next roots come from the candidates: the whole-CSR border test stays deleted.
    ("a-timestep-costs-what-the-wave-touches", r"any_neighbor\(", ("src/",), None),
    ("one-record-stream",
     r"crosscheck_trace|crosscheck_critical_path|crosscheck_ingest|replay_timestep_walls"
     r"|replay_partition_breakdown|observe_checkpoint|observe_prefetch|observe_migration"
     r"|observe_recovery|mirror=",
     EVERYWHERE, None),
    # numpy is the one runtime dependency: only the two oracle functions of
    # algorithms/reference.py may import scipy, inside the call.
    ("importing-is-the-top-layer",
     r"^\s*(import|from) +(scipy|networkx)", ("src/",), "reference.py"),
    # The driver and its agents share one blocking adapter: an asyncio import
    # anywhere puts it (and ssl) back on a run's import path.
    ("one-worker-plane-no-asyncio", r"^\s*(import|from) +asyncio", ("src/",), None),
    ("one-worker-plane",
     r"_AsyncConn|_EventLoopThread|run_coroutine_threadsafe|_round_args|_build_worker_host",
     EVERYWHERE, None),
    ("every-worker-is-an-agent+one-cluster",
     r"SocketCluster|socket_cluster|_agent_main|_worker_main|exit_on_kill|exit-on-kill"
     r"|\.Pipe\(|LocalCluster|ProcessCluster|_TRACES_ROUNDS|_procs\b|_conns\b",
     EVERYWHERE, None),
    ("one-cluster", r"class \w+\(Cluster\)", ("src/",), None),
    ("decide-the-corners-by-deleting",
     r"GreedyRebalancer|RebalancePolicy|apply_migrations|MigrationRecord|evict_subgraph"
     r"|adopt_subgraph|rebalancer|remote_edges_of|\"thread\"",
     EVERYWHERE, None),
    ("one-bsp-loop",
     r"run_temporally_parallel|simulated_makespan|drain_merge_inbox|absorb_merge_inbox"
     r"|remote_per_frame_s|prefetch_issue_s|DeliveriesLike|group_by_destination",
     EVERYWHERE, None),
    ("one-bsp-engine",
     r"PregelEngine|PregelResult|AdaptedVertexContext|initial_active",
     (*EVERYWHERE, "DESIGN.md"), None),
    ("say-it-once",
     r"PrefetchRecord|prefetch_issue|prefetch_next|_prefetch_sources|RecoveryAction"
     r"|EarlyWarning|early_warnings|stall_warning_s|tracing_enabled|live_enabled",
     EVERYWHERE, None),
    ("one-bsp-engine-no-storage-knob", r"compress=|prefetch_lead", ("src/repro/storage/",), None),
    # A host's flush is its step record.
    ("one-bsp-engine-host-flush",
     r"\"sends\"|messages\.(local|remote|frames)", ("src/repro/runtime/host.py",), None),
    # At a 61-vertex frontier `np.repeat` / `np.cumsum` / `np.flatnonzero` cost
    # 2-3x the array's own method.
    ("the-operations-interpreter-tax-kernels",
     r"np\.(repeat|cumsum|flatnonzero|sort)\(", ("src/repro/kernels/",), None),
    # `searchsorted` costs 47 ns per unsorted needle against < 1 ns through a
    # direct-address table (`GoFSPartitionView._row_index`).
    ("the-operations-interpreter-tax-storage", r"searchsorted", ("src/repro/storage/",), None),
    ("a-checkpoint-closes-a-timestep",
     r"superstep_every|reload_timestep|resume_inner|ckpt_every|slow_host|_verify_signature",
     EVERYWHERE, None),
    # Slice format 4: no zip container is written or read under storage/, and
    # no per-pack re-comparison of a bin's rows comes back.
    ("an-operation-reads-what-the-wave-touches",
     r"np\.(savez|load)\(|_adopt_rows", ("src/repro/storage/",), None),
    ("the-live-view-is-a-reader-of-the-log",
     r"LiveMetrics|LiveConfig|HeartbeatMonitor|HealthEvent|live_snapshot"
     r"|JsonlSnapshotExporter|PrometheusTextfile|publish_stats|live_stats|--live-",
     EVERYWHERE, None),
    ("one-protocol-core",
     r"_check_faults|WorkerCrash|fire\([^)]*kinds=", EVERYWHERE, None),
    # The agent and the gather are I/O-free.
    ("one-protocol-core-io-free",
     r"^\s*(import|from) +(socket|select|pickle|multiprocessing|time)\b",
     ("src/repro/runtime/protocol.py",), None),
    ("every-run-is-supervised",
     r"raise_first_failure|def _round\(|def restore\(", EVERYWHERE, None),
    ("one-way-to-read-a-pack",
     r"ThreadPoolExecutor|PREFETCH_LEAD|prefetch_enabled|cache_packs|cache_bytes"
     r"|load_hidden_s|_absorb_finished|def prefetch\(",
     ("src/",), None),
    # Superstep 0 opens a timestep: no begin op, fault sentinel or echoed GC
    # pause, and a computation that wants raw messages defines no combiner.
    ("a-timestep-opens-at-superstep-0",
     r"begin_timestep|AT_BEGIN|gc_pause_s|use_combiners|combiners=",
     EVERYWHERE, None),
]


def _files(path: Path):
    if path.is_file():
        yield path
        return
    for child in sorted(path.rglob("*")):
        if child.is_file() and "__pycache__" not in child.parts:
            yield child


def grep(pattern: str, paths, exclude: str | None, root: Path = ROOT) -> list[str]:
    """``grep -rnE pattern paths [--exclude=exclude]`` from ``root``: the
    matching lines."""
    regex = re.compile(pattern)
    found = []
    for name in paths:
        for path in _files(root / name):
            if exclude is not None and fnmatch.fnmatch(path.name, exclude):
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for number, line in enumerate(text.splitlines(), 1):
                if regex.search(line):
                    found.append(f"{path.relative_to(root)}:{number}: {line.strip()}")
    return found


@pytest.mark.parametrize(
    "pattern, paths, exclude", [row[1:] for row in DELETED], ids=[row[0] for row in DELETED]
)
def test_deleted_names_stay_deleted(pattern, paths, exclude):
    assert all((ROOT / p).exists() for p in paths), paths
    assert grep(pattern, paths, exclude) == []


def test_the_table_finds_what_it_looks_for(tmp_path):
    """A pattern that is present is found, and an exclusion skips its file."""
    (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\nfrom scipy import sparse\n")
    (tmp_path / "pkg" / "reference.py").write_text("import scipy\n")
    (tmp_path / "pkg" / "__pycache__" / "a.pyc").write_text("import scipy\n")
    imports = r"^\s*(import|from) +(scipy|networkx)"
    assert grep(imports, ("pkg/",), None, tmp_path) == [
        "pkg/a.py:2: from scipy import sparse",
        "pkg/reference.py:1: import scipy",
    ]
    assert grep(imports, ("pkg/",), "reference.py", tmp_path) == [
        "pkg/a.py:2: from scipy import sparse",
    ]
