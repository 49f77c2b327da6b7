"""One open rule for the chunk store.

Campaigns, the campaign reader and the service open a store through one
helper, ``repro.storage.chunkstore._open_store``: it takes a handle or a
root path and refuses a lossy store by name.  That holds only while no
other code in ``src/repro`` builds a ``ChunkStore`` itself, so this lint
fails on a ``ChunkStore(...)`` call anywhere else.  Docstring examples
may still build one, and so may tests, examples and benchmarks.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
#: The one ``(file, function)`` site allowed to construct a store.
ALLOWED = {("src/repro/storage/chunkstore.py", "_open_store")}


def store_constructions(source: str) -> list[tuple[int, str | None]]:
    """``(line, enclosing function)`` of every ``ChunkStore(...)`` call."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "ChunkStore":
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_detector_sees_the_calls_it_guards_against():
    assert store_constructions("s = repro.ChunkStore(root, encoding='int16')") == [(1, None)]
    assert store_constructions("def f(root):\n    return ChunkStore(root)") == [(2, "f")]
    assert store_constructions('"""ChunkStore(root)"""\nx = ChunkStore') == []


def test_only_the_open_helper_constructs_a_store():
    sites = set()
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        for line, function in store_constructions(path.read_text(encoding="utf-8")):
            if (relative, function) in ALLOWED:
                sites.add((relative, function))
            else:
                offenders.append(f"{relative}:{line} (in {function})")
    assert not offenders, (
        "ChunkStore(...) built outside repro.storage.chunkstore._open_store; "
        "open stores through it so a lossy store is refused everywhere: "
        + ", ".join(offenders)
    )
    assert sites == ALLOWED
