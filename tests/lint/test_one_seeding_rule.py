"""One seeding rule, in one function.

Member ``r`` of seed ``s`` draws from ``SeedSequence(s, spawn_key=(r,))``,
whichever entry point draws it: ``emulate``, ``emulate_stream``,
``run_campaign`` or ``serve``.  That holds only while every seed in
``src/repro`` is derived in ``repro.core.generator._member_seeds`` and
turned into a generator only in ``repro.core.generator._member_rngs``.
So this lint fails on a ``SeedSequence(...)`` call (with or without a
``spawn_key=``) outside the first, on any ``.spawn(...)`` call, and on a
``default_rng(...)`` call outside the second -- ``default_rng(seed + r)``
per member would be a second rule.  The synthetic training-data
generator (``repro.data.era5_like``) is the one other allowed
``default_rng``: it makes the ensemble an emulator is fitted to, not
an emulation.  Docstrings may still quote the rule, and the manifest
still records each run's ``spawn_key``.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
#: Call name -> the ``(file, function)`` sites allowed to make it.
ALLOWED = {
    "SeedSequence": {("src/repro/core/generator.py", "_member_seeds")},
    "spawn": set(),  # the rule names its key; nothing spawns children
    "default_rng": {
        ("src/repro/core/generator.py", "_member_rngs"),
        ("src/repro/data/era5_like.py", "generate"),
    },
}


def seeding_calls(source: str) -> list[tuple[int, str | None, str]]:
    """``(line, enclosing function, call name)`` of every seeding call."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func).split(".")[-1]
            if name in ALLOWED:
                found.append((node.lineno, function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_detector_sees_the_calls_it_guards_against():
    assert seeding_calls("c = np.random.SeedSequence(seed).spawn(4)") == [
        (1, None, "spawn"), (1, None, "SeedSequence"),
    ]
    assert seeding_calls("def f():\n    return SeedSequence(s, spawn_key=(r,))") == [
        (2, "f", "SeedSequence"),
    ]
    assert seeding_calls("children = root.spawn(3)") == [(1, None, "spawn")]
    assert seeding_calls("def g(seed, n):\n    return [default_rng(seed + r) for r in n]") == [
        (2, "g", "default_rng"),
    ]
    assert seeding_calls("rngs = [np.random.default_rng(p.seed) for p in plans]") == [
        (1, None, "default_rng"),
    ]
    assert seeding_calls('"""SeedSequence(seed, spawn_key=(r,))"""\nkey = plan.spawn_key') == []
    assert seeding_calls("record = Record(spawn_key=plan.spawn_key)") == []


def test_seeds_are_derived_only_by_the_rule():
    offenders, used = [], set()
    paths = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    assert len(paths) > 50  # the package, not an empty glob
    for path in paths:
        name = path.relative_to(REPO_ROOT).as_posix()
        for line, function, call in seeding_calls(path.read_text(encoding="utf-8")):
            if (name, function) in ALLOWED[call]:
                used.add((call, name, function))
            else:
                offenders.append(f"{name}:{line} {call}()")
    expected = {(call, *site) for call, sites in ALLOWED.items() for site in sites}
    assert used == expected, f"allowed sites that no longer seed: {sorted(expected - used)}"
    assert not offenders, (
        "seeds derived or turned into generators outside "
        "repro.core.generator._member_seeds / _member_rngs at: " + ", ".join(offenders)
    )
