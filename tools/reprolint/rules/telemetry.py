"""Telemetry-hygiene rule: timing and instrument names go through ``repro.obs``.

The observability layer only stays trustworthy if it is the *single*
timing surface inside ``src/repro`` and its instrument namespace stays
machine-comparable.  Two properties, both statically checkable:

* **no ad-hoc timers** — ``time.perf_counter``/``monotonic``/
  ``process_time`` calls inside ``src/repro`` (outside ``repro/obs``
  itself) mean a hot path is being timed outside the span layer, so the
  measurement never reaches traces, histograms or ``tracereport``.
  Time the region with ``repro.obs.span`` instead (the span's
  ``seconds``/``elapsed()`` replace the manual delta).  Everything
  under ``src/repro/obs/`` (``metrics.py``, ``tracing.py``) is *inside*
  the layer and exempt.  Legitimate exceptions go through the pragma
  mechanism.

* **well-formed, collision-free instrument names** — every literal name
  handed to ``span(...)``, ``counter_add``/``gauge_set``/``observe`` or
  a registry's ``add``/``set_gauge``/``observe`` must be dotted
  lowercase (``sht.plan_cache.hits``), and one name must keep one
  instrument kind across the whole tree: the registry raises at runtime
  when ``observe`` meets a counter name, and a ``span("x.y")`` implies
  a histogram ``x.y.seconds``, so this rule surfaces the conflict at
  lint time instead of in production.  ``f"{PREFIX}.tail"`` names are
  resolved when ``PREFIX`` is a module-level string constant; names the
  rule cannot resolve statically are skipped (the runtime check still
  guards them).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from tools.reprolint.model import Finding, ModuleUnit
from tools.reprolint.rulebase import ProjectContext, Rule, dotted_name

__all__ = ["TelemetryHygieneRule"]

#: Mirrors ``repro.obs.metrics.METRIC_NAME_RE`` (kept literal so the
#: linter never imports the package it analyses); use with ``fullmatch``.
_NAME_RE = re.compile(r"[a-z0-9_]+(\.[a-z0-9_]+)+")

_TIMER_CALLS = {
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
}

#: Module-level helpers of ``repro.obs`` -> instrument kind.
_OBS_FUNCTIONS = {"counter_add": "counter", "gauge_set": "gauge", "observe": "histogram"}

#: Registry methods -> instrument kind (checked when the receiver looks
#: like a metrics registry: ``...metrics.add``, ``get_registry().add``).
_REGISTRY_METHODS = {"add": "counter", "set_gauge": "gauge", "observe": "histogram"}

_RECEIVER_HINTS = ("metrics", "registry")


def _module_str_constants(tree: ast.Module) -> dict:
    """Module-level ``NAME = "literal"`` bindings (for f-string prefixes)."""
    constants: dict = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
            if isinstance(stmt.value.value, str):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = stmt.value.value
    return constants


def _literal_name(node: ast.expr, constants: dict) -> "str | None":
    """The static string value of an instrument-name argument, if any."""
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    if isinstance(node, ast.JoinedStr):
        parts = []
        for piece in node.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                parts.append(piece.value)
            elif (
                isinstance(piece, ast.FormattedValue)
                and isinstance(piece.value, ast.Name)
                and piece.value.id in constants
            ):
                parts.append(constants[piece.value.id])
            else:
                return None
        return "".join(parts)
    return None


def _is_registry_receiver(func: ast.Attribute) -> bool:
    """Whether ``func.value`` plausibly denotes a metrics registry."""
    receiver = func.value
    if isinstance(receiver, ast.Call):
        callee = dotted_name(receiver.func) or ""
        return any(hint in callee.lower() for hint in _RECEIVER_HINTS)
    name = dotted_name(receiver) or ""
    return any(hint in name.lower() for hint in _RECEIVER_HINTS)


def _instruments(unit: ModuleUnit) -> Iterator[tuple]:
    """``(name, kind, node)`` for every statically-resolvable instrument."""
    constants = _module_str_constants(unit.tree)
    for node in ast.walk(unit.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        kind = None
        if isinstance(func, ast.Name):
            if func.id == "span":
                kind = "span"
            else:
                kind = _OBS_FUNCTIONS.get(func.id)
        elif isinstance(func, ast.Attribute):
            if func.attr == "span" and (dotted_name(func) or "").endswith("obs.span"):
                kind = "span"
            elif func.attr in _REGISTRY_METHODS and _is_registry_receiver(func):
                kind = _REGISTRY_METHODS[func.attr]
        if kind is None:
            continue
        name = _literal_name(node.args[0], constants)
        if name is not None:
            yield name, kind, node


class TelemetryHygieneRule(Rule):
    id = "telemetry-hygiene"
    description = (
        "src/repro times hot paths through repro.obs spans only, and "
        "instrument names are dotted lowercase with one kind per name"
    )
    hint = (
        "time the region with repro.obs.span (its .seconds/.elapsed() "
        "replace manual perf_counter deltas), and keep instrument names "
        "dotted lowercase with a single instrument kind per name"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check_module(
        self, unit: ModuleUnit, ctx: ProjectContext
    ) -> Iterable[Finding]:
        findings: list[Finding] = []
        # Everything under src/repro/obs/ *is* the telemetry layer, so
        # raw timers are its implementation there and banned elsewhere.
        if not unit.relpath.startswith("src/repro/obs/"):
            for node in ast.walk(unit.tree):
                if isinstance(node, ast.Call):
                    callee = dotted_name(node.func)
                    if callee in _TIMER_CALLS:
                        findings.append(
                            unit.finding(
                                self.id, node,
                                f"`{callee}()` times a region outside the "
                                f"telemetry layer, so the measurement never "
                                f"reaches traces or histograms; {self.hint}",
                            )
                        )
        for name, kind, node in _instruments(unit):
            if not _NAME_RE.fullmatch(name):
                findings.append(
                    unit.finding(
                        self.id, node,
                        f"{kind} name {name!r} is not dotted lowercase "
                        f"(expected e.g. 'sht.plan_cache.hits'); {self.hint}",
                    )
                )
        return findings

    def check_project(
        self, units: "list[ModuleUnit]", ctx: ProjectContext
    ) -> Iterable[Finding]:
        # One instrument kind per name across the whole tree.  A span
        # feeds a histogram `<name>.seconds`, so it claims that name.
        seen: dict = {}
        findings: list[Finding] = []
        for unit in units:
            if not self.applies_to(unit.relpath):
                continue
            for name, kind, node in sorted(
                _instruments(unit), key=lambda item: item[2].lineno
            ):
                if kind == "span":
                    name, kind = f"{name}.seconds", "histogram"
                if not _NAME_RE.fullmatch(name):
                    continue  # already reported by check_module
                prior = seen.setdefault(name, (kind, unit.relpath, node.lineno))
                if prior[0] != kind:
                    findings.append(
                        unit.finding(
                            self.id, node,
                            f"instrument name {name!r} is used as a {kind} "
                            f"here but as a {prior[0]} at "
                            f"{prior[1]}:{prior[2]}; the registry raises on "
                            f"cross-kind reuse at runtime — rename one of "
                            f"them; {self.hint}",
                        )
                    )
        return findings
