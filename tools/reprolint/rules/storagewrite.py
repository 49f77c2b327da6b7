"""Non-finite-write guard for the persistent storage layer.

PR 5's other corruption bug: an ``int16`` encode of a NaN chunk wrote an
all-zero payload behind a ``max_abs_error: nan`` manifest entry.  The
fix routes every shard write through :func:`_require_finite` *before*
anything touches disk.  This rule keeps that invariant structural: in
``src/repro/storage/``, any function that writes array data — through
``np.savez`` / ``np.savez_compressed`` / ``np.save``, ``<array>.tofile``,
or a raw ``<handle>.write`` / ``<handle>.writelines`` / ``os.write`` of
anything that is not text — must reach a ``*require_finite*``-named
validator through the module's own call graph (directly, or via helpers
like ``_encode``), so a future writer path cannot quietly skip
validation.

Text is what cannot carry an array's bytes: a ``str``/``bytes``
literal, an f-string, ``json.dumps(...)``, ``str``/``repr``/``format``,
a ``.encode()``/``.format()`` of text, ``+``/``%`` of text, or a local
name every assignment of which is text.  So the lockfile's pid, the
header's JSON and a journal line need no validator, and a shard's raw
``handle.write(payload)`` does.

The reachability check is transitive within the module: ``_write_shard``
passes because it calls ``_encode`` which calls ``_require_finite``.
A deliberately unvalidated writer (e.g. a lossless-only debug dump)
gets a pragma with its reason, not an exemption.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.reprolint.model import Finding, ModuleUnit
from tools.reprolint.rulebase import ProjectContext, Rule, dotted_name

__all__ = ["NonFiniteWriteRule"]

_NUMPY_WRITERS = {"savez", "savez_compressed", "save"}
_STREAM_WRITERS = {"write", "writelines"}
_TEXT_FUNCTIONS = {"json.dumps", "str", "repr", "format"}
_TEXT_METHODS = {"encode", "format"}


def _assigned_values(func: ast.AST) -> "dict[str, list]":
    """Every value bound to each local name (``None`` when not a plain bind)."""
    values: dict[str, list] = {}
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                plain = isinstance(target, ast.Name) and not isinstance(
                    node, ast.AugAssign
                )
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        values.setdefault(name.id, []).append(
                            node.value if plain else None
                        )
    return values


def _is_text(expr: "ast.AST | None", values: dict, seen: frozenset = frozenset()) -> bool:
    """Whether an expression can only be text (see the module docstring)."""
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, (str, bytes))
    if isinstance(expr, ast.JoinedStr):
        return True
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Mod)):
        return _is_text(expr.left, values, seen) and (
            isinstance(expr.op, ast.Mod) or _is_text(expr.right, values, seen)
        )
    if isinstance(expr, ast.Call):
        if dotted_name(expr.func) in _TEXT_FUNCTIONS:
            return True
        return (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _TEXT_METHODS
            and _is_text(expr.func.value, values, seen)
        )
    if isinstance(expr, ast.Name) and expr.id not in seen:
        bound = values.get(expr.id, [])
        return bool(bound) and all(
            _is_text(value, values, seen | {expr.id}) for value in bound
        )
    return False


def _writes_arrays(call: ast.Call, values: dict) -> bool:
    """Whether a call can write an array's bytes to disk."""
    name = dotted_name(call.func)
    method = call.func.attr if isinstance(call.func, ast.Attribute) else None
    if method in _NUMPY_WRITERS and name.split(".")[0] in {"np", "numpy"}:
        return True
    if method == "tofile":
        return True
    if name == "os.write":
        data = call.args[1] if len(call.args) > 1 else None
    elif method in _STREAM_WRITERS:
        data = call.args[0] if call.args else None
    else:
        return False
    return not _is_text(data, values)


class NonFiniteWriteRule(Rule):
    id = "nonfinite-write"
    description = (
        "storage/ shard writers must be dominated by a _require_finite-style "
        "validation call"
    )
    hint = (
        "call _require_finite (directly or through the encode helper) before "
        "the write, so lossy encodings can never persist NaN/Inf silently"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/storage/")

    def check_module(
        self, unit: ModuleUnit, ctx: ProjectContext
    ) -> Iterable[Finding]:
        # Module call graph keyed on bare function names: good enough for
        # a module's own helpers, which is the only scope that matters.
        functions: dict[str, ast.AST] = {}
        for node in ast.walk(unit.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = node

        calls: dict[str, set[str]] = {}
        for name, func in functions.items():
            called: set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    target = dotted_name(node.func).split(".")[-1]
                    if target:
                        called.add(target)
            calls[name] = called

        def reaches_validator(name: str, seen: "set[str]") -> bool:
            if name in seen:
                return False
            seen.add(name)
            for target in calls.get(name, ()):
                if "require_finite" in target:
                    return True
                if target in functions and reaches_validator(target, seen):
                    return True
            return False

        findings: list[Finding] = []
        for name, func in functions.items():
            values = _assigned_values(func)
            writer_calls = [
                node for node in ast.walk(func)
                if isinstance(node, ast.Call) and _writes_arrays(node, values)
            ]
            if not writer_calls:
                continue
            if reaches_validator(name, set()):
                continue
            for call in writer_calls:
                findings.append(
                    unit.finding(
                        self.id, call,
                        f"{name} writes arrays to disk without any reachable "
                        f"*require_finite* validation; {self.hint}",
                    )
                )
        return findings
