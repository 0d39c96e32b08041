"""No public name without a caller.

Every public function, class and method of ``src/repro`` is referenced by
an identifier somewhere in ``src/``, ``benchmarks/`` or ``examples/``: a
name only its own tests call is deleted, not kept.  A reference is a name,
an attribute or an imported name in the syntax tree; a string (``__all__``,
a lazy export table, ``getattr(obj, "name")``) is not one.  A method counts
as referenced when any attribute of its name is.  ``ALLOWED`` lists the
public names kept without a caller, each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_DOCUMENTED = "computation-writing API of §II, documented in docs/writing-computations.md"
_ORACLE = "independent oracle the tests check the engine's computations against"
_KEPT = "library computation ROADMAP item 3 keeps (PageRank, WCC, TopN)"
_HOOK = "GoFS source hook the host finds with getattr"

#: ``module:qualified name`` -> why it stays without a caller.
ALLOWED = {
    "repro.core.context:ComputeContext.is_first_superstep": _DOCUMENTED,
    "repro.core.context:ComputeContext.is_first_timestep": _DOCUMENTED,
    "repro.graph.subgraph:Subgraph.global_of": _DOCUMENTED,
    "repro.algorithms.reference:temporal_reachability": _ORACLE,
    "repro.algorithms.reference:weakly_connected_components": _ORACLE,
    "repro.algorithms.reference:instance_communities": _ORACLE,
    "repro.algorithms.reference:pagerank": _ORACLE,
    "repro.algorithms.pagerank:PageRankComputation": _KEPT,
    "repro.algorithms.pagerank:pagerank_from_result": _KEPT,
    "repro.algorithms.wcc:WCCComputation": _KEPT,
    "repro.algorithms.wcc:wcc_labels_from_result": _KEPT,
    "repro.algorithms.top_n:TopNComputation": _KEPT,
    "repro.baselines.vertex_algorithms:VertexPageRank": _KEPT + ", as the Pregel baseline",
    "repro.storage.gofs:GoFSPartitionView.attach_tracer": _HOOK,
    "repro.storage.gofs:GoFSPartitionView.drain_load": _HOOK,
    "repro.storage.gofs:GoFSPartitionView.reload_instance": _HOOK,
    "repro.generators.snap:load_snap_edgelist":
        "the one reader of the paper's SNAP datasets; no program can call it "
        "until such a file is in the repository",
}


def _public_definitions(path: Path):
    """``(module:qualified name, name)`` of every public module-level
    function or class and every public method, nested classes included."""
    module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{owner}.{node.name}" if owner else node.name
                if not node.name.startswith("_"):
                    yield f"{module}:{qualified}", node.name
                if isinstance(node, ast.ClassDef):
                    yield from visit(node.body, qualified)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")).body, None)


def _referenced() -> set[str]:
    names: set[str] = set()
    for top in ("src", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_has_a_caller():
    referenced = _referenced()
    defined = dict(
        pair for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for pair in _public_definitions(path)
    )
    uncalled = sorted(key for key, name in defined.items() if name not in referenced)
    assert [key for key in uncalled if key not in ALLOWED] == []
    # The allowlist names only what exists and needs it, each with a reason.
    assert sorted(ALLOWED) == uncalled
    assert all(reason.strip() for reason in ALLOWED.values())
