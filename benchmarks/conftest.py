"""Shared benchmark fixtures: the paper's four dataset configurations.

Scale knobs (environment variables):

* ``REPRO_BENCH_SCALE`` — template vertex count (default 20000);
* ``REPRO_BENCH_INSTANCES`` — graph instances per collection (default 50).

Every bench prints the same rows/series its paper artifact reports and
appends them to ``benchmarks/results/<bench>.txt`` so the tables survive
pytest's output capture; each block's first line names the commit and the
scale that wrote it.  A session starts a result file afresh the first
time it writes to it, so running one bench refreshes that bench's files
and leaves every other bench's committed results as they are.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.generators import paper_datasets
from repro.partition import MetisLikePartitioner, partition_graph

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "20000"))
INSTANCES = int(os.environ.get("REPRO_BENCH_INSTANCES", "50"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))

RESULTS_DIR = Path(__file__).parent / "results"
HISTORY_DIR = Path(__file__).parent / "history"

#: Version of the common ``--json`` payload schema every bench emits.
BENCH_SCHEMA_VERSION = 1


def bench_envelope(bench_name: str, results: dict) -> dict:
    """The common machine-readable payload every ``--json`` bench emits.

    One schema across all ``bench_*.py`` files: a provenance envelope
    (bench scale knobs + git describe + timestamp, via ``run_provenance``)
    wrapping the bench's named result series, so downstream tooling can
    diff any bench against any PR without per-bench parsers.
    """
    from repro.observability import run_provenance

    return {
        "schema": "tibsp-bench-v1",
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": bench_name,
        "provenance": run_provenance(scale=SCALE, instances=INSTANCES, seed=SEED),
        "results": results,
    }


def bench_history(bench_name: str, envelope: dict) -> Path:
    """Append one envelope line to ``benchmarks/history/<bench>.jsonl``.

    ``benchmarks/results/`` holds each bench's latest run only, so the
    history lives in its own directory: one JSONL line per run makes the
    perf trajectory across PRs machine-readable.
    """
    HISTORY_DIR.mkdir(exist_ok=True)
    path = HISTORY_DIR / f"{bench_name}.jsonl"
    with path.open("a") as fh:
        fh.write(json.dumps(envelope, sort_keys=True) + "\n")
    return path


#: Result files this session has written: the first write replaces the file.
_WRITTEN: set[str] = set()


def emit(bench_name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/.

    The block's first line names the commit and the scale knobs that wrote
    it, as :func:`bench_envelope` does for the JSON files.
    """
    from repro.observability import git_describe

    title, newline, body = text.partition("\n")
    stamp = f"[{git_describe()} scale={SCALE} instances={INSTANCES} seed={SEED}]"
    text = f"{title}  {stamp}{newline}{body}"
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{bench_name}.txt"
    mode = "a" if bench_name in _WRITTEN else "w"
    _WRITTEN.add(bench_name)
    with path.open(mode) as fh:
        fh.write(text + "\n\n")


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store_true",
        default=False,
        help="also write machine-readable BENCH_<name>.json files under benchmarks/results/",
    )


@pytest.fixture(scope="session")
def emit_json(request):
    """Write ``BENCH_<name>.json`` when the session ran with ``--json``.

    The payload is wrapped in the common :func:`bench_envelope` schema and
    also appended to ``benchmarks/history/<bench>.jsonl`` so runs across
    PRs accumulate into a machine-readable perf trajectory.  Returns the
    written path, or None when JSON output is disabled, so benches can
    emit unconditionally and stay cheap in normal runs.
    """
    enabled = request.config.getoption("--json")

    def _emit(bench_name: str, payload: dict):
        if not enabled:
            return None
        envelope = bench_envelope(bench_name, payload)
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"BENCH_{bench_name}.json"
        path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
        bench_history(bench_name, envelope)
        return path

    return _emit


@pytest.fixture(scope="session")
def datasets():
    """The four dataset configurations (Section IV-A) at bench scale."""
    return paper_datasets(SCALE, INSTANCES, seed=SEED)


@pytest.fixture(scope="session")
def partitioned():
    """Cache of (graph name, k) → PartitionedGraph, METIS-like partitioning."""
    cache: dict[tuple[str, int], object] = {}
    data = paper_datasets(SCALE, INSTANCES, seed=SEED)

    def get(name: str, k: int):
        key = (name, k)
        if key not in cache:
            cache[key] = partition_graph(
                data[name]["template"], k, MetisLikePartitioner(seed=SEED)
            )
        return cache[key]

    return get
