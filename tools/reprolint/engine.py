"""The analysis engine: collect files, run rules, apply pragmas.

The pipeline is deliberately linear:

1. collect ``*.py`` files under the requested paths (skipping caches and
   hidden directories);
2. parse each into a :class:`~tools.reprolint.model.ModuleUnit` — a file
   that does not parse is itself a finding (``syntax-error``), never a
   crash;
3. run every rule's per-module hook, then every rule's project hook;
4. drop findings suppressed by a well-formed pragma (and emit
   ``bad-pragma`` for malformed ones).

What remains is the report; a non-empty report is a failed run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from tools.reprolint.model import BAD_PRAGMA, Finding, ModuleUnit
from tools.reprolint.rulebase import ProjectContext
from tools.reprolint.rules import LINT_RULES, create_rules

__all__ = ["Report", "collect_files", "lint_paths", "lint_source"]

#: Framework rule id for unparseable files.
SYNTAX_ERROR = "syntax-error"

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}


@dataclass
class Report:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    scanned: int = 0
    suppressed_by_pragma: int = 0
    rule_ids: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "version": 2,
            "ok": self.ok,
            "scanned_files": self.scanned,
            "rules": self.rule_ids,
            "suppressed_by_pragma": self.suppressed_by_pragma,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def collect_files(root: Path, paths: "Sequence[str | Path]") -> list[Path]:
    """Every ``*.py`` file under ``paths`` (resolved against ``root``), sorted."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_file() and path.suffix == ".py":
            files.add(path)
            continue
        for candidate in path.rglob("*.py"):
            parts = set(candidate.relative_to(path).parts[:-1])
            if parts & _SKIP_DIRS or any(p.startswith(".") for p in parts):
                continue
            files.add(candidate)
    return sorted(files)


def _apply_pragmas(
    unit: ModuleUnit, findings: "list[Finding]", known_rules: "set[str]"
) -> "tuple[list[Finding], list[Finding], int]":
    """Split one unit's findings into (kept, pragma-findings, suppressed)."""
    pragma_findings: list[Finding] = []
    suppressing: dict[int, set[str]] = {}
    for pragma in unit.pragmas:
        unknown = [r for r in pragma.rules if r != "*" and r not in known_rules]
        if not pragma.rules:
            pragma_findings.append(
                unit.finding(
                    BAD_PRAGMA, pragma.line,
                    "pragma names no rule; write "
                    "`# reprolint: allow[rule-id] reason`",
                )
            )
            continue
        if unknown:
            pragma_findings.append(
                unit.finding(
                    BAD_PRAGMA, pragma.line,
                    f"pragma names unknown rule(s) {', '.join(unknown)}; "
                    f"known rules: {', '.join(sorted(known_rules))}",
                )
            )
            continue
        if not pragma.reason:
            pragma_findings.append(
                unit.finding(
                    BAD_PRAGMA, pragma.line,
                    "pragma has no reason; a suppression must say why "
                    "(`# reprolint: allow[rule-id] reason`)",
                )
            )
            continue
        targets = suppressing.setdefault(pragma.target_line, set())
        targets.update(pragma.rules)
    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        allowed = suppressing.get(finding.line, set())
        if finding.rule in allowed or "*" in allowed:
            suppressed += 1
        else:
            kept.append(finding)
    return kept, pragma_findings, suppressed


def lint_paths(
    root: "str | Path",
    paths: "Sequence[str | Path]",
    *,
    rules: "Iterable[str] | None" = None,
) -> Report:
    """Analyze ``paths`` under ``root`` and return the :class:`Report`."""
    root = Path(root).resolve()
    ctx = ProjectContext(root)
    active = create_rules(rules)
    known = set(LINT_RULES)
    report = Report(rule_ids=[rule.id for rule in active])

    units: list[ModuleUnit] = []
    for path in collect_files(root, paths):
        report.scanned += 1
        try:
            units.append(ModuleUnit.from_file(path, root))
        except SyntaxError as exc:
            relpath = path.resolve().relative_to(root).as_posix()
            report.findings.append(
                Finding(
                    rule=SYNTAX_ERROR,
                    path=relpath,
                    line=int(exc.lineno or 0),
                    message=f"file does not parse: {exc.msg}",
                )
            )

    per_unit: dict[str, list[Finding]] = {unit.relpath: [] for unit in units}
    for unit in units:
        for rule in active:
            if rule.applies_to(unit.relpath):
                per_unit[unit.relpath].extend(rule.check_module(unit, ctx))
    project_findings: list[Finding] = []
    for rule in active:
        project_findings.extend(rule.check_project(units, ctx))
    for finding in project_findings:
        if finding.path in per_unit:
            per_unit[finding.path].append(finding)
        else:
            report.findings.append(finding)

    for unit in units:
        kept, pragma_findings, suppressed = _apply_pragmas(
            unit, per_unit[unit.relpath], known
        )
        report.findings.extend(kept)
        report.findings.extend(pragma_findings)
        report.suppressed_by_pragma += suppressed

    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report


def lint_source(
    source: str,
    relpath: str = "src/repro/example.py",
    *,
    rules: "Iterable[str] | None" = None,
) -> list[Finding]:
    """Analyze one in-memory module; the unit-test / documentation helper.

    Pragmas in ``source`` are honoured.  Rules needing project context
    (``api-hygiene``) see a single-unit project.
    """
    unit = ModuleUnit(relpath, source, ast.parse(source, filename=relpath))
    ctx = ProjectContext(Path("."))
    active = create_rules(rules)
    known = set(LINT_RULES)
    findings: list[Finding] = []
    for rule in active:
        if rule.applies_to(unit.relpath):
            findings.extend(rule.check_module(unit, ctx))
    for rule in active:
        findings.extend(rule.check_project([unit], ctx))
    kept, pragma_findings, _ = _apply_pragmas(unit, findings, known)
    result = kept + pragma_findings
    result.sort(key=lambda f: (f.path, f.line, f.rule))
    return result
