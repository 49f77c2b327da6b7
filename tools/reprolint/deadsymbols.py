"""Dead/unused-public-symbol report.

For a package directory (say ``src/repro/systems``) or a single module
(``src/repro/tuning.py``), read the ``__all__`` of its ``__init__.py``
(or of the module) and classify every public symbol by where — outside
the package itself — its name is actually referenced:

* ``src``      — referenced from production code (other ``src`` files);
* ``tests``    — referenced only from the test-suite;
* ``support``  — referenced only from benchmarks/examples/tools;
* ``unused``   — referenced nowhere outside the package.

References are collected from the AST (bare names and attribute
accesses), so string mentions in docs don't count and renames can't
hide.  The report is evidence, not a verdict — ROADMAP item 7 uses it
to decide which public names earn their keep — and is exposed as
``python -m tools.reprolint --dead-public``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tools.reprolint.engine import collect_files

__all__ = ["dead_symbol_report"]

_DEFAULT_USAGE_DIRS = ("src", "tests", "benchmarks", "examples", "tools")


def _public_symbols(init_path: Path) -> list[str]:
    tree = ast.parse(init_path.read_text(encoding="utf-8"), filename=str(init_path))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return [
                        el.value
                        for el in stmt.value.elts
                        if isinstance(el, ast.Constant) and isinstance(el.value, str)
                    ]
    return []


def _referenced_names(path: Path) -> set[str]:
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError:
        return set()
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.name.split(".")[-1])
                if alias.asname:
                    names.add(alias.asname)
    return names


def _bucket(relpath: str) -> str:
    first = relpath.split("/", 1)[0]
    if first == "src":
        return "src"
    if first == "tests":
        return "tests"
    return "support"


def dead_symbol_report(
    root: "str | Path",
    packages: "list[str]",
    usage_dirs: "tuple[str, ...] | list[str]" = _DEFAULT_USAGE_DIRS,
) -> dict:
    """Classify every public symbol of ``packages`` by external usage."""
    root = Path(root).resolve()

    usages: dict[str, set[str]] = {}
    for directory in usage_dirs:
        for path in collect_files(root, [directory]):
            relpath = path.resolve().relative_to(root).as_posix()
            usages[relpath] = _referenced_names(path)

    report: dict = {"packages": {}}
    for package in packages:
        package_dir = (root / package).resolve()
        if package_dir.suffix == ".py":
            # A single-module layer: its own file is "the package".
            init_path = package_dir
            relprefix = package_dir.relative_to(root).as_posix()
        else:
            init_path = package_dir / "__init__.py"
            relprefix = package_dir.relative_to(root).as_posix() + "/"
        symbols = _public_symbols(init_path) if init_path.exists() else []
        entries = {}
        for symbol in symbols:
            buckets: dict[str, list[str]] = {"src": [], "tests": [], "support": []}
            for relpath, names in usages.items():
                if relpath.startswith(relprefix):
                    continue  # the package referencing itself proves nothing
                if symbol in names:
                    buckets[_bucket(relpath)].append(relpath)
            if buckets["src"]:
                status = "used-in-src"
            elif buckets["tests"] and buckets["support"]:
                status = "tests-and-support-only"
            elif buckets["tests"]:
                status = "tests-only"
            elif buckets["support"]:
                status = "support-only"
            else:
                status = "unused"
            entries[symbol] = {
                "status": status,
                "src": sorted(buckets["src"]),
                "tests": sorted(buckets["tests"]),
                "support": sorted(buckets["support"]),
            }
        report["packages"][package] = {
            "symbols": entries,
            "counts": _count_statuses(entries),
        }
    return report


def _count_statuses(entries: dict) -> dict:
    counts: dict[str, int] = {}
    for entry in entries.values():
        counts[entry["status"]] = counts.get(entry["status"], 0) + 1
    return counts


def render_report(report: dict) -> str:
    lines: list[str] = []
    for package, data in report["packages"].items():
        lines.append(f"{package}:")
        for symbol, entry in sorted(data["symbols"].items()):
            refs = entry["src"] or entry["tests"] or entry["support"]
            where = f" ({len(refs)} ref file(s))" if refs else ""
            lines.append(f"  {symbol:28s} {entry['status']}{where}")
        summary = ", ".join(
            f"{count} {status}" for status, count in sorted(data["counts"].items())
        )
        lines.append(f"  -- {summary or 'no public symbols'}")
    return "\n".join(lines)
