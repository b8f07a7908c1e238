"""The public API: ``qbp.__all__`` is sorted, unique and resolves, so
``from qbp import *`` cannot hold a stale export after a rename; and every
export is reached from the command line or the benchmark, so no public name
lives on for the tests alone."""

import ast
from pathlib import Path

import qbp

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qbp"

# exports that nothing in the package calls, kept as test oracles
ORACLES = {
    "block_final_amplitudes": "the paper's closed form for a rotation block's final configuration",
    "compose_parallel": "the paper's parallel composition of rotation blocks, the oracle of build_mod_program",
    "good_multipliers": "the paper's definition of a good multiplier, the oracle of _good_table",
    "mod_block": "the paper's rotation block, composed in parallel as the oracle of build_mod_program",
}


def test_all_is_sorted_and_unique():
    assert qbp.__all__ == sorted(set(qbp.__all__))


def test_all_names_resolve():
    missing = [name for name in qbp.__all__ if not hasattr(qbp, name)]
    assert missing == []


def _used(node: ast.AST) -> set[str]:
    """Names, attributes and imported names used under ``node``; annotations
    do not count (docstrings, being strings, never do)."""
    out, stack = set(), [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        for field, child in ast.iter_fields(n):
            if field not in ("annotation", "returns"):
                stack.extend(c for c in (child if isinstance(child, list) else [child])
                             if isinstance(c, ast.AST))
    return out


def _reached() -> set[str]:
    """Top-level definitions of ``src/qbp`` reached from the names that
    ``cli.py`` and ``perfbench/*.py`` use."""
    edges: dict[str, set[str]] = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in assigned if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                edges.setdefault(name, set()).update(_used(node))
    roots = [SRC / "cli.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    todo = set().union(*(_used(ast.parse(path.read_text())) for path in roots))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= edges.get(name, set()) - reached
    return reached


def test_every_export_is_reached_or_an_oracle():
    reached = _reached()
    assert sorted(set(ORACLES) - set(qbp.__all__)) == []
    assert sorted(set(ORACLES) & reached) == []  # an oracle that gains a caller leaves the list
    assert sorted(set(qbp.__all__) - reached - set(ORACLES)) == []
