"""Lock-discipline race checker.

The repo's concurrency convention (``ChunkStore``, ``EmulationService``,
the SHT plan cache) is small and checkable:

* a class that creates a ``threading.Lock``/``RLock`` attribute owns
  shared mutable state, and every method that touches that state either
  does so inside ``with self._lock:`` or is named with the ``_locked``
  suffix (meaning: my caller holds the lock);
* a module with a module-level lock (``_LOCK = threading.Lock()``)
  follows the same convention for its module-level mutable globals.

"Shared mutable state" is derived, not declared: any attribute bound in
``__init__`` to a mutable container (dict/list/set literal or
comprehension, ``dict()``/``OrderedDict()``/``deque()``-style builtin
container calls, or an instantiation of a CamelCase class such as
``_ChunkCache(...)``) is lock-protected for **reads and writes**; any
*other* instance attribute written outside ``__init__`` (counters like
``self._hits += 1``) is lock-protected for **writes**.  Plain config
attributes assigned once in ``__init__`` (``self.encoding = str(...)``)
stay freely readable, which keeps the rule quiet on the hot read paths
that are deliberately lock-free.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.reprolint.model import Finding, ModuleUnit
from tools.reprolint.rulebase import ProjectContext, Rule, dotted_name

__all__ = ["LockDisciplineRule"]

_LOCK_FACTORIES = {"Lock", "RLock"}
_CONTAINER_CALLS = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter",
}
_MUTABLE_LITERALS = (
    ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp,
)
_INIT_METHODS = {"__init__", "__post_init__", "__new__"}


def _is_lock_factory(call: ast.AST) -> bool:
    """Whether an expression is a ``threading.Lock()``/``RLock()`` call."""
    if not isinstance(call, ast.Call):
        return False
    name = dotted_name(call.func)
    return name.split(".")[-1] in _LOCK_FACTORIES


def _is_camelcase_instantiation(call: ast.AST) -> bool:
    """Heuristic: a call to ``_ChunkCache``-like names builds a mutable object."""
    if not isinstance(call, ast.Call):
        return False
    name = dotted_name(call.func).split(".")[-1]
    stripped = name.lstrip("_")
    return bool(stripped) and stripped[0].isupper() and not _is_lock_factory(call)


def _is_mutable_value(value: ast.AST) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func).split(".")[-1]
        if name in _CONTAINER_CALLS:
            return True
        return _is_camelcase_instantiation(value)
    return False


def _self_attr(node: ast.AST) -> "str | None":
    """The attribute name of a ``self.<attr>`` expression, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _assigned_attrs(stmt: ast.stmt) -> Iterator[tuple[str, ast.AST]]:
    """``(attr, value)`` pairs for ``self.attr = value`` style statements."""
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            attr = _self_attr(target)
            if attr is not None:
                yield attr, stmt.value
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        attr = _self_attr(stmt.target)
        if attr is not None and stmt.value is not None:
            yield attr, stmt.value


def _with_guards(node: ast.With, lock_exprs: "set[str]") -> bool:
    """Whether a ``with`` statement acquires one of the given locks."""
    for item in node.items:
        expr = item.context_expr
        # Accept both `with self._lock:` and `with _LOCK:` spellings,
        # plus explicit `.acquire()`-less context-manager use only.
        if dotted_name(expr) in lock_exprs:
            return True
    return False


def _locked_lines(body: "list[ast.stmt]", lock_exprs: "set[str]") -> "set[int]":
    """Line numbers lexically inside a lock-acquiring ``with`` block."""
    lines: set[int] = set()
    for stmt in ast.walk(ast.Module(body=list(body), type_ignores=[])):
        if isinstance(stmt, ast.With) and _with_guards(stmt, lock_exprs):
            for inner in ast.walk(stmt):
                line = getattr(inner, "lineno", None)
                if line is not None:
                    lines.add(line)
    return lines


class LockDisciplineRule(Rule):
    id = "lock-discipline"
    description = (
        "shared mutable state of lock-owning classes/modules must be "
        "accessed under the lock or from *_locked methods"
    )
    hint = (
        "wrap the access in `with self._lock:` (or the module lock), or name "
        "the helper `..._locked` if every caller already holds the lock"
    )

    # ------------------------------------------------------------------ #
    # Class-level discipline
    # ------------------------------------------------------------------ #
    def _check_class(self, unit: ModuleUnit, cls: ast.ClassDef) -> Iterator[Finding]:
        methods = [
            node for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs: set[str] = set()
        for method in methods:
            for stmt in ast.walk(method):
                for attr, value in (
                    _assigned_attrs(stmt) if isinstance(stmt, ast.stmt) else ()
                ):
                    if _is_lock_factory(value):
                        lock_attrs.add(attr)
        if not lock_attrs:
            return

        protected_reads: set[str] = set()
        for method in methods:
            if method.name not in _INIT_METHODS:
                continue
            for stmt in ast.walk(method):
                if not isinstance(stmt, ast.stmt):
                    continue
                for attr, value in _assigned_attrs(stmt):
                    if attr not in lock_attrs and _is_mutable_value(value):
                        protected_reads.add(attr)

        lock_exprs = {f"self.{attr}" for attr in lock_attrs}
        for method in methods:
            if method.name in _INIT_METHODS or method.name.endswith("_locked"):
                continue
            locked = _locked_lines(method.body, lock_exprs)
            for node in ast.walk(method):
                if getattr(node, "lineno", None) in locked:
                    continue
                # Unlocked writes: any instance attribute (counters included).
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    for attr, _ in _assigned_attrs(node):
                        if attr in lock_attrs:
                            continue
                        yield unit.finding(
                            self.id, node,
                            f"{cls.name}.{method.name} writes self.{attr} "
                            f"without holding {'/'.join(sorted(lock_exprs))}; "
                            f"{self.hint}",
                        )
                # Unlocked reads of mutable containers / owned objects.
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    attr = _self_attr(node)
                    if attr in protected_reads:
                        yield unit.finding(
                            self.id, node,
                            f"{cls.name}.{method.name} reads shared mutable "
                            f"self.{attr} without holding "
                            f"{'/'.join(sorted(lock_exprs))}; {self.hint}",
                        )

    # ------------------------------------------------------------------ #
    # Module-level discipline
    # ------------------------------------------------------------------ #
    def _check_module_globals(self, unit: ModuleUnit) -> Iterator[Finding]:
        lock_names: set[str] = set()
        protected: set[str] = set()
        for stmt in unit.tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                value = stmt.value
                if value is None:
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if _is_lock_factory(value):
                        lock_names.add(target.id)
                    elif _is_mutable_value(value):
                        protected.add(target.id)
        if not lock_names:
            return

        # Names functions rebind via `global` are shared state too
        # (counters); their module-level initializer may be immutable.
        written_globals: set[str] = set()
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Global):
                written_globals.update(node.names)
        protected |= written_globals - lock_names

        functions = [
            node for node in unit.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for func in functions:
            if func.name.endswith("_locked"):
                continue
            locked = _locked_lines(func.body, lock_names)
            # Parameters and locals shadow module globals.
            local_names = {arg.arg for arg in func.args.args}
            local_names |= {arg.arg for arg in func.args.kwonlyargs}
            declared_global: set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and node.id in protected:
                    if node.id in local_names and node.id not in declared_global:
                        continue
                    if node.lineno in locked:
                        continue
                    action = (
                        "writes" if isinstance(node.ctx, (ast.Store, ast.Del))
                        else "reads"
                    )
                    yield unit.finding(
                        self.id, node,
                        f"{func.name} {action} module-shared {node.id} "
                        f"without holding {'/'.join(sorted(lock_names))}; "
                        f"{self.hint}",
                    )

    def check_module(
        self, unit: ModuleUnit, ctx: ProjectContext
    ) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(unit, node))
        findings.extend(self._check_module_globals(unit))
        return findings
