"""Rule catalogue: importing this package registers every built-in rule.

Each module registers its rules in
:data:`tools.reprolint.rulebase.LINT_RULES` at import time (the same
pattern ``repro.sht.backends`` uses for SHT backends), so adding a rule
is: write the module, import it here, done — the engine, CLI, pragma
validation and ``--list-rules`` all pick it up from the registry.
"""

from tools.reprolint.rules import (  # noqa: F401  (imported for registration)
    api_hygiene,
    determinism,
    indexing,
    layering,
    locking,
    manifest,
    protocol,
    storagewrite,
    style,
    telemetry,
)
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
    "LockDisciplineRule",
    "ManifestCommitRule",
    "MutableDefaultRule",
    "NonFiniteWriteRule",
    "StateProtocolRule",
    "TelemetryHygieneRule",
]
