"""Rule catalogue: :data:`LINT_RULES`, a closed table from rule id to class.

Adding a rule is: write the module, add its class here — the engine, CLI,
pragma validation and ``--list-rules`` all read this table.
"""

from typing import Iterable

from tools.reprolint.rulebase import Rule
from tools.reprolint.rules.api_hygiene import ApiHygieneRule
from tools.reprolint.rules.determinism import DeterminismRule
from tools.reprolint.rules.indexing import IndexRecoveryRule
from tools.reprolint.rules.layering import ImportLayeringRule
from tools.reprolint.rules.locking import LockDisciplineRule
from tools.reprolint.rules.manifest import ManifestCommitRule
from tools.reprolint.rules.protocol import StateProtocolRule
from tools.reprolint.rules.storagewrite import NonFiniteWriteRule
from tools.reprolint.rules.style import BareExceptRule, MutableDefaultRule
from tools.reprolint.rules.telemetry import TelemetryHygieneRule

__all__ = [
    "ApiHygieneRule",
    "BareExceptRule",
    "DeterminismRule",
    "ImportLayeringRule",
    "IndexRecoveryRule",
    "LINT_RULES",
    "LockDisciplineRule",
    "ManifestCommitRule",
    "MutableDefaultRule",
    "NonFiniteWriteRule",
    "StateProtocolRule",
    "TelemetryHygieneRule",
    "create_rules",
]

#: Every lint rule, keyed by rule id.
LINT_RULES: "dict[str, type[Rule]]" = {
    "api-hygiene": ApiHygieneRule,
    "bare-except": BareExceptRule,
    "determinism": DeterminismRule,
    "import-layering": ImportLayeringRule,
    "index-recovery": IndexRecoveryRule,
    "lock-discipline": LockDisciplineRule,
    "manifest-commit": ManifestCommitRule,
    "mutable-default": MutableDefaultRule,
    "nonfinite-write": NonFiniteWriteRule,
    "state-protocol": StateProtocolRule,
    "telemetry-hygiene": TelemetryHygieneRule,
}


def create_rules(ids: "Iterable[str] | None" = None) -> "list[Rule]":
    """Instantiate the requested rules (every rule, in id order, by default).

    An unknown id raises :class:`ValueError` listing the catalogue.
    """
    names = sorted(LINT_RULES) if ids is None else list(ids)
    unknown = [name for name in names if name not in LINT_RULES]
    if unknown:
        available = ", ".join(repr(name) for name in sorted(LINT_RULES))
        raise ValueError(
            f"unknown reprolint rule {unknown[0]!r}; available backends: "
            f"{available} (see docs/analysis.md)"
        )
    return [LINT_RULES[name]() for name in names]
