"""Import-layering rule: ``src/repro`` layers import only what the table allows.

``docs/architecture.md`` states which layer may build on which; this
rule is that statement, executable.  :data:`LAYERS` maps every layer
(a subpackage or top-level module of ``repro``) to the layers it may
import **at module import time** — the doc's table lists the same rows
and ``tests/lint/test_repo_clean.py`` pins the two equal.  Imports
inside a function body are the sanctioned escape for upward references
("nothing below ``api`` imports from ``api`` at import time") and are
not checked; neither is ``src/repro/__init__.py``, the root that
re-exports everything.

Known contradictions are listed in :data:`EXCEPTIONS` with the reason
they stand, so the baseline stays empty and each one is visible in one
place; an exception that no longer matches an import is itself a
finding, so the list can only shrink.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.reprolint.model import Finding, ModuleUnit
from tools.reprolint.rulebase import ProjectContext, Rule

__all__ = ["EXCEPTIONS", "ImportLayeringRule", "LAYERS"]

#: layer -> layers it may import at module import time.
LAYERS: "dict[str, tuple[str, ...]]" = {
    "util": (),
    "obs": (),
    "tuning": (),
    "sht": ("obs", "util"),
    "linalg": ("util",),
    "data": ("sht",),
    "stats": ("data", "sht"),
    "storage": ("obs", "util"),
    "core": ("data", "linalg", "obs", "sht"),
    "api": ("core", "data", "obs", "util"),
    "scenarios": ("api", "core", "obs", "storage", "tuning", "util"),
    "serving": ("api", "core", "obs", "scenarios", "storage"),
}

#: ``(importing layer, imported module prefix) -> why it stands``.
EXCEPTIONS: "dict[tuple[str, str], str]" = {
    ("sht", "repro.linalg.flops"): (
        "flop-count formulas for the contraction spans; the frozen "
        "benchmarks/e2e harness imports the same module, so moving it is "
        "a benchmark-archetype change"
    ),
}

_PREFIX = "src/repro/"


def _layer_of(relpath: str) -> "str | None":
    """The layer a ``src/repro`` file belongs to (``None`` for the root)."""
    if not relpath.startswith(_PREFIX):
        return None
    head = relpath[len(_PREFIX):].split("/", 1)[0]
    if head == "__init__.py":
        return None
    return head[:-3] if head.endswith(".py") else head


def _import_time_statements(body: "list[ast.stmt]") -> Iterator[ast.stmt]:
    """Import statements that run when the module is imported.

    Descends into module-level ``if``/``try``/``with`` blocks but not
    into functions or classes, and skips ``if TYPE_CHECKING:`` bodies.
    """
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            test = ast.unparse(stmt.test)
            if not test.endswith("TYPE_CHECKING"):
                yield from _import_time_statements(stmt.body)
            yield from _import_time_statements(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                yield from _import_time_statements(block)
            for handler in stmt.handlers:
                yield from _import_time_statements(handler.body)
        elif isinstance(stmt, ast.With):
            yield from _import_time_statements(stmt.body)


def _imported_modules(stmt: ast.stmt) -> "list[str]":
    """Dotted ``repro.*`` module names a statement imports."""
    if isinstance(stmt, ast.Import):
        names = [alias.name for alias in stmt.names]
    elif stmt.level or not stmt.module:
        return []  # relative imports stay inside their own layer
    elif stmt.module == "repro":
        names = [f"repro.{alias.name}" for alias in stmt.names]
    else:
        names = [stmt.module]
    return [name for name in names if name.startswith("repro.")]


def _exception_for(layer: str, module: str) -> "tuple[str, str] | None":
    for key in EXCEPTIONS:
        if key[0] == layer and (module == key[1] or module.startswith(key[1] + ".")):
            return key
    return None


class ImportLayeringRule(Rule):
    id = "import-layering"
    description = (
        "src/repro layers import at module level only the layers the "
        "architecture table allows"
    )
    hint = (
        "import it inside the function that needs it, or move the code; "
        "a new edge means editing LAYERS in tools/reprolint/rules/"
        "layering.py and the table in docs/architecture.md together"
    )

    def applies_to(self, relpath: str) -> bool:
        return _layer_of(relpath) is not None

    def _violations(self, unit: ModuleUnit) -> Iterator[tuple]:
        """``(stmt, module, exception key or None)`` per cross-layer import."""
        layer = _layer_of(unit.relpath)
        allowed = LAYERS.get(layer, ())
        for stmt in _import_time_statements(unit.tree.body):
            for module in _imported_modules(stmt):
                target = module.split(".")[1]
                if target == layer or target in allowed or target not in LAYERS:
                    continue
                yield stmt, module, _exception_for(layer, module)

    def check_module(
        self, unit: ModuleUnit, ctx: ProjectContext
    ) -> Iterable[Finding]:
        layer = _layer_of(unit.relpath)
        # A layer without a row may import nothing, so a new subpackage
        # meets the table with its first cross-layer import.
        allowed = sorted(LAYERS.get(layer, ())) or "nothing"
        return [
            unit.finding(
                self.id, stmt,
                f"`repro.{layer}` imports `{module}` at import time, but "
                f"the layering table allows only {allowed}; {self.hint}",
            )
            for stmt, module, exception in self._violations(unit)
            if exception is None
        ]

    def check_project(
        self, units: "list[ModuleUnit]", ctx: ProjectContext
    ) -> Iterable[Finding]:
        # On a whole-package scan (the root __init__ is among the files,
        # as for api-hygiene) an exception that matched no import is
        # stale: the contradiction is gone, so is its excuse.
        root = next((u for u in units if u.relpath == _PREFIX + "__init__.py"), None)
        if root is None:
            return ()
        used = {
            exception
            for unit in units
            if self.applies_to(unit.relpath)
            for _, _, exception in self._violations(unit)
        }
        return [
            root.finding(
                self.id, 1,
                f"layering exception {key} matches no import any more; "
                f"delete it from EXCEPTIONS",
            )
            for key in EXCEPTIONS
            if key not in used
        ]
