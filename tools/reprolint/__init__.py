"""reprolint — repo-native static analysis for the emulator's invariants.

An AST-based analyzer (stdlib ``ast``, no third-party dependencies)
whose rules encode invariants this repository has already paid for in
corruption bugs: lock discipline around shared mutable state,
``SeedSequence``-only randomness, exact-integer index recovery, the
``state_dict``/``from_state`` pairing, validated storage writes, and a
resolvable, documented public API.  See ``docs/analysis.md`` for the
rule catalogue and the pragma workflow.

Run it as ``python -m tools.reprolint src tools benchmarks``; the
test-suite gates it under ``tests/lint/`` and CI runs it as a dedicated
job.

Public API (used by the tests and the docs snippets):

* :func:`lint_paths` / :func:`lint_source` — run the analysis;
* :data:`LINT_RULES` — the rule catalogue, a dict from rule id to class;
* :class:`Finding`, :class:`Report` — result model;
* :func:`dead_symbol_report` — the unused-public-symbol report.
"""

from tools.reprolint.deadsymbols import dead_symbol_report
from tools.reprolint.engine import Report, collect_files, lint_paths, lint_source
from tools.reprolint.model import Finding, ModuleUnit, parse_pragmas
from tools.reprolint.rulebase import ProjectContext, Rule
from tools.reprolint.rules import LINT_RULES, create_rules

__all__ = [
    "Finding",
    "LINT_RULES",
    "ModuleUnit",
    "ProjectContext",
    "Report",
    "Rule",
    "collect_files",
    "create_rules",
    "dead_symbol_report",
    "lint_paths",
    "lint_source",
    "parse_pragmas",
]
