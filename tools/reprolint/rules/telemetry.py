"""Telemetry-hygiene rule: timing goes through ``repro.obs`` spans.

The observability layer only stays trustworthy if spans are the
*single* timing surface inside ``src/repro`` and their names stay
machine-comparable.  Two properties, both statically checkable:

* **no ad-hoc timers** — ``time.perf_counter``/``monotonic``/
  ``process_time`` calls inside ``src/repro`` (outside ``repro/obs``
  itself) mean a hot path is being timed outside the span layer, so the
  measurement never reaches traces or ``tracereport``.  Time the region
  with ``repro.obs.span`` instead (the span's ``seconds``/``elapsed()``
  replace the manual delta).  Everything under ``src/repro/obs/`` is
  *inside* the layer and exempt.  Legitimate exceptions go through the
  pragma mechanism.

* **well-formed span names** — every literal name handed to
  ``span(...)`` must be dotted lowercase (``sht.plan_cache.build``).
  ``f"{PREFIX}.tail"`` names are resolved when ``PREFIX`` is a
  module-level string constant; names the rule cannot resolve
  statically are skipped.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from tools.reprolint.model import Finding, ModuleUnit
from tools.reprolint.rulebase import ProjectContext, Rule, dotted_name

__all__ = ["TelemetryHygieneRule"]

#: Dotted lowercase with at least two segments; use with ``fullmatch``.
_NAME_RE = re.compile(r"[a-z0-9_]+(\.[a-z0-9_]+)+")

_TIMER_CALLS = {
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
}


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
    """The static string value of a span-name argument, if any."""
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


def _span_names(unit: ModuleUnit) -> Iterator[tuple]:
    """``(name, node)`` for every statically-resolvable span name."""
    constants = _module_str_constants(unit.tree)
    for node in ast.walk(unit.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        callee = dotted_name(node.func)
        if callee == "span" or callee.endswith("obs.span"):
            name = _literal_name(node.args[0], constants)
            if name is not None:
                yield name, node


class TelemetryHygieneRule(Rule):
    id = "telemetry-hygiene"
    description = (
        "src/repro times hot paths through repro.obs spans only, and "
        "span names are dotted lowercase"
    )
    hint = (
        "time the region with repro.obs.span (its .seconds/.elapsed() "
        "replace manual perf_counter deltas), and keep span names "
        "dotted lowercase"
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
                                f"reaches traces; {self.hint}",
                            )
                        )
        for name, node in _span_names(unit):
            if not _NAME_RE.fullmatch(name):
                findings.append(
                    unit.finding(
                        self.id, node,
                        f"span name {name!r} is not dotted lowercase "
                        f"(expected e.g. 'sht.plan_cache.build'); {self.hint}",
                    )
                )
        return findings
