"""Rule interface and the helpers rules share.

A rule is a :class:`Rule` subclass listed in
:data:`tools.reprolint.rules.LINT_RULES`; an unknown rule id in a pragma
or a ``--rule`` filter produces an error that lists the whole catalogue.

A rule implements one (or both) of two hooks:

* :meth:`Rule.check_module` — called once per parsed file; the workhorse
  for syntactic rules (locking, determinism, index recovery, style).
* :meth:`Rule.check_project` — called once per run with every unit; for
  cross-file rules (API hygiene resolves ``__all__`` re-export chains
  and cross-references ``docs/api.md``).

``applies_to`` scopes a rule by path so e.g. determinism constraints
bind ``src/repro`` without outlawing seeded benchmarks.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from tools.reprolint.model import Finding, ModuleUnit

__all__ = ["ProjectContext", "REPO_ROOT", "Rule"]

REPO_ROOT = Path(__file__).resolve().parents[2]


class ProjectContext:
    """Shared per-run state handed to every rule.

    Caches file reads and parses so cross-file rules (API hygiene
    following re-export chains into modules outside the scanned paths)
    stay cheap, and exposes the analysis ``root`` every relative path is
    resolved against.
    """

    def __init__(self, root: Path):
        self.root = Path(root).resolve()
        self._texts: dict[str, "str | None"] = {}
        self._trees: dict[str, "ast.Module | None"] = {}

    def read_text(self, relpath: str) -> "str | None":
        """Contents of ``root / relpath``, or ``None`` when unreadable."""
        if relpath not in self._texts:
            try:
                self._texts[relpath] = (self.root / relpath).read_text(
                    encoding="utf-8"
                )
            except OSError:
                self._texts[relpath] = None
        return self._texts[relpath]

    def parse(self, relpath: str) -> "ast.Module | None":
        """Parsed AST of ``root / relpath``, or ``None`` when unavailable."""
        if relpath not in self._trees:
            text = self.read_text(relpath)
            try:
                tree = None if text is None else ast.parse(text, filename=relpath)
            except SyntaxError:
                tree = None
            self._trees[relpath] = tree
        return self._trees[relpath]


class Rule:
    """Base class for lint rules; subclasses set ``id``, ``description``, ``hint``."""

    id: str = ""
    #: One-line statement of the invariant, printed by ``--list-rules``.
    description: str = ""
    #: One-line remediation pointer appended to finding messages.
    hint: str = ""

    def applies_to(self, relpath: str) -> bool:
        """Whether ``check_module`` should run for this file."""
        return True

    def check_module(
        self, unit: ModuleUnit, ctx: ProjectContext
    ) -> Iterable[Finding]:
        return ()

    def check_project(
        self, units: "list[ModuleUnit]", ctx: ProjectContext
    ) -> Iterable[Finding]:
        return ()


def dotted_name(node: ast.AST) -> str:
    """Dotted source text of a Name/Attribute chain ('' when not one)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""
