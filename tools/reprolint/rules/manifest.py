"""Manifest-commit rule: chunk-store manifest state mutates only inside
the commit protocol.

``ChunkStore``'s multi-writer safety rests on one invariant: every
mutation of the view (the entries ``self._chunks``; the header token
``self._manifest_token`` and ``self._revision``; the journal position
``self._journal``, ``self._journal_offset`` and
``self._journal_entries``) and every on-disk publish (the header /
snapshot write ``self._dump_manifest_locked`` and the journal append
``self._append_journal_locked``) happens either in a ``*_locked``
method (whose caller owns both locks) or lexically inside
``with self._flock_locked():`` — the cross-process lockfile
transaction.  A mutation outside that protocol is exactly the
lost-update bug the commit protocol exists to prevent: it can overwrite
entries a foreign process committed, resurrect entries a foreign
process pruned, or append a record at an offset another writer moved.

Scope: classes under ``src/repro/storage/`` that define a
``_dump_manifest*`` or ``_append_journal*`` method (i.e. they own a
manifest).  ``__init__`` binding the initial empty view is fine; reads
are fine — the rule polices writes and commits only, complementing
``lock-discipline`` (which covers the in-process thread lock but cannot
see the cross-process file lock).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.reprolint.model import Finding, ModuleUnit
from tools.reprolint.rulebase import LINT_RULES, ProjectContext, Rule, dotted_name

__all__ = ["ManifestCommitRule"]

#: Instance attributes that make up the manifest view.
_MANIFEST_ATTRS = {
    "_chunks", "_manifest_token", "_revision",
    "_journal", "_journal_offset", "_journal_entries",
}
#: Method-name prefixes of the on-disk publishers.
_PUBLISHERS = ("_dump_manifest", "_append_journal")
#: Methods on the manifest mapping that mutate it in place.
_MUTATOR_CALLS = {"update", "pop", "popitem", "setdefault", "clear", "__setitem__"}
_INIT_METHODS = {"__init__", "__post_init__", "__new__"}


def _self_attr(node: ast.AST) -> "str | None":
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_flock_acquire(expr: ast.AST) -> bool:
    """Whether an expression is a ``self._flock_locked()``-style call."""
    return isinstance(expr, ast.Call) and dotted_name(expr.func).endswith(
        "_flock_locked"
    )


def _transaction_lines(body: "list[ast.stmt]") -> "set[int]":
    """Line numbers lexically inside a ``with ..._flock_locked():`` block."""
    lines: set[int] = set()
    for stmt in ast.walk(ast.Module(body=list(body), type_ignores=[])):
        if isinstance(stmt, ast.With) and any(
            _is_flock_acquire(item.context_expr) for item in stmt.items
        ):
            for inner in ast.walk(stmt):
                line = getattr(inner, "lineno", None)
                if line is not None:
                    lines.add(line)
    return lines


def _manifest_target(node: ast.AST) -> "str | None":
    """The manifest attribute a store/delete target touches, else ``None``.

    Matches both rebinding (``self._chunks = ...``) and item mutation
    (``self._chunks[addr] = ...`` / ``del self._chunks[addr]``).
    """
    if isinstance(node, ast.Subscript):
        node = node.value
    attr = _self_attr(node)
    if attr in _MANIFEST_ATTRS:
        return attr
    return None


def _mutation_targets(stmt: ast.AST) -> Iterator[str]:
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = stmt.targets
    else:
        return
    for target in targets:
        attr = _manifest_target(target)
        if attr is not None:
            yield attr


@LINT_RULES.register(
    "manifest-commit",
    description=(
        "chunk-store manifest state (mapping, token, on-disk write) mutates "
        "only inside *_locked methods or a _flock_locked() transaction"
    ),
)
class ManifestCommitRule(Rule):
    id = "manifest-commit"
    hint = (
        "route the mutation through a `*_locked` helper or wrap it in "
        "`with self._flock_locked():` so foreign commits are re-read first"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/storage/")

    def _check_class(self, unit: ModuleUnit, cls: ast.ClassDef) -> Iterator[Finding]:
        methods = [
            node for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        owns_manifest = any(
            method.name.startswith(_PUBLISHERS) for method in methods
        )
        if not owns_manifest:
            return

        for method in methods:
            if method.name in _INIT_METHODS or method.name.endswith("_locked"):
                continue
            in_transaction = _transaction_lines(method.body)
            for node in ast.walk(method):
                if getattr(node, "lineno", None) in in_transaction:
                    continue
                for attr in _mutation_targets(node):
                    yield unit.finding(
                        self.id, node,
                        f"{cls.name}.{method.name} mutates self.{attr} "
                        f"outside the manifest commit protocol; {self.hint}",
                    )
                if isinstance(node, ast.Call):
                    name = dotted_name(node.func)
                    head, _, tail = name.rpartition(".")
                    if head == "self" and tail.startswith(_PUBLISHERS):
                        yield unit.finding(
                            self.id, node,
                            f"{cls.name}.{method.name} writes the manifest "
                            f"({tail}) outside the commit protocol; "
                            f"{self.hint}",
                        )
                    elif (
                        tail in _MUTATOR_CALLS
                        and head.startswith("self.")
                        and head.removeprefix("self.") in _MANIFEST_ATTRS
                    ):
                        yield unit.finding(
                            self.id, node,
                            f"{cls.name}.{method.name} calls "
                            f"{head}.{tail}() outside the manifest commit "
                            f"protocol; {self.hint}",
                        )

    def check_module(
        self, unit: ModuleUnit, ctx: ProjectContext
    ) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(unit, node))
        return findings
