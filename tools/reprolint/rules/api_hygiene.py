"""API-hygiene rule: the public surface resolves, is documented, and is listed.

``repro.__init__.__all__`` *is* the public API.  For every name in it,
this rule checks — statically, by following ``from repro.x import name``
re-export chains through the source tree — that:

* the name resolves to a real definition (function, class or module
  constant) somewhere inside ``repro``, or to a ``repro`` submodule
  (``from repro import obs``) whose module docstring then stands in for
  the definition docstring;
* a function/class definition carries a non-empty docstring (the API
  reference is generated from docstrings, so an empty one is an empty
  reference entry);
* the name appears in the generated ``docs/api.md`` (dunders like
  ``__version__`` are exempt from the listing requirement);
* ``__all__`` itself is sorted, so diffs stay reviewable.

The rule runs when ``src/repro/__init__.py`` is among the scanned files
and reads re-export targets from disk as needed, so scanning ``src``
alone is enough.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from tools.reprolint.model import Finding, ModuleUnit
from tools.reprolint.rulebase import ProjectContext, Rule

__all__ = ["ApiHygieneRule"]

_PACKAGE_INIT = "src/repro/__init__.py"
_API_DOC = "docs/api.md"
_MAX_CHAIN = 8


def _module_relpath(module: str) -> "str | None":
    """Source path of a ``repro.*`` module ('' level-0 imports only)."""
    if module != "repro" and not module.startswith("repro."):
        return None
    base = "src/" + module.replace(".", "/")
    return base  # caller tries both <base>.py and <base>/__init__.py


class _Resolution:
    """Where a public name finally lives, or why it doesn't."""

    def __init__(self, node: "ast.AST | None", relpath: str = "", failed: str = ""):
        self.node = node
        self.relpath = relpath
        self.failed = failed


def _find_definition(tree: ast.Module, name: str):
    """The top-level def/class/assignment binding ``name``, if any."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if stmt.name == name:
                return stmt
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                return stmt
    return None


def _find_import(tree: ast.Module, name: str) -> "tuple[str, str] | None":
    """``(module, original_name)`` when ``name`` arrives via ``from..import``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module and stmt.level == 0:
            for alias in stmt.names:
                if (alias.asname or alias.name) == name:
                    return stmt.module, alias.name
    return None


def _resolve(ctx: ProjectContext, relpath: str, name: str, depth: int = 0) -> _Resolution:
    if depth > _MAX_CHAIN:
        return _Resolution(None, failed=f"re-export chain deeper than {_MAX_CHAIN}")
    tree = ctx.parse(relpath)
    if tree is None:
        return _Resolution(None, failed=f"cannot read {relpath}")
    definition = _find_definition(tree, name)
    if definition is not None:
        return _Resolution(definition, relpath)
    imported = _find_import(tree, name)
    if imported is None:
        return _Resolution(None, failed=f"no definition or import in {relpath}")
    module, original = imported
    base = _module_relpath(module)
    if base is None:
        # Re-exported from outside repro (stdlib/numpy): resolvable, opaque.
        return _Resolution(None, relpath=relpath)
    resolution = _Resolution(None, failed=f"module {module} has no source file")
    for candidate in (f"{base}.py", f"{base}/__init__.py"):
        if ctx.read_text(candidate) is not None:
            if candidate == relpath and original == name:
                # ``from repro import obs`` inside repro/__init__.py binds
                # the submodule, never an attribute of the file itself.
                resolution = _Resolution(None, failed="self-import")
            else:
                resolution = _resolve(ctx, candidate, original, depth + 1)
            break
    if resolution.failed:
        # ``from repro[.pkg] import sub`` with no attribute of that name
        # binds the submodule; resolve it to its own source file.
        sub_base = _module_relpath(f"{module}.{original}")
        if sub_base is not None:
            for candidate in (f"{sub_base}.py", f"{sub_base}/__init__.py"):
                subtree = ctx.parse(candidate)
                if subtree is not None:
                    return _Resolution(subtree, candidate)
    return resolution


class ApiHygieneRule(Rule):
    id = "api-hygiene"
    description = (
        "every repro.__all__ symbol must resolve, carry a docstring, and "
        "appear in docs/api.md"
    )
    hint = (
        "fix the export, add the docstring, or add the symbol to "
        "tools/gen_api_docs.py and regenerate docs/api.md"
    )

    def check_project(
        self, units: "list[ModuleUnit]", ctx: ProjectContext
    ) -> Iterable[Finding]:
        unit = next((u for u in units if u.relpath == _PACKAGE_INIT), None)
        if unit is None:
            return ()
        findings: list[Finding] = []

        all_node = None
        for stmt in unit.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        all_node = stmt.value
        if not isinstance(all_node, (ast.List, ast.Tuple)):
            findings.append(
                unit.finding(
                    self.id, unit.tree.body[0] if unit.tree.body else 1,
                    "repro/__init__.py has no literal __all__ list",
                )
            )
            return findings

        names: list[tuple[str, ast.AST]] = []
        for element in all_node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.append((element.value, element))

        listed = [name for name, _ in names]
        if listed != sorted(listed):
            findings.append(
                unit.finding(
                    self.id, all_node,
                    "__all__ is not sorted; keep it sorted so additions "
                    "diff cleanly",
                )
            )

        api_text = ctx.read_text(_API_DOC)
        for name, node in names:
            resolution = _resolve(ctx, _PACKAGE_INIT, name)
            if resolution.failed:
                findings.append(
                    unit.finding(
                        self.id, node,
                        f"__all__ exports {name!r} but it does not resolve "
                        f"({resolution.failed}); {self.hint}",
                    )
                )
                continue
            definition = resolution.node
            if isinstance(
                definition,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module),
            ):
                if not (ast.get_docstring(definition) or "").strip():
                    findings.append(
                        unit.finding(
                            self.id, node,
                            f"public {name!r} ({resolution.relpath}) has no "
                            f"docstring, so its generated reference entry "
                            f"is empty; {self.hint}",
                        )
                    )
            if name.startswith("__"):
                continue
            if api_text is None:
                findings.append(
                    unit.finding(
                        self.id, node,
                        f"{_API_DOC} is missing, so {name!r} is undocumented; "
                        f"{self.hint}",
                    )
                )
            elif not re.search(rf"\b{re.escape(name)}\b", api_text):
                findings.append(
                    unit.finding(
                        self.id, node,
                        f"public {name!r} does not appear in {_API_DOC}; "
                        f"{self.hint}",
                    )
                )
        return findings
