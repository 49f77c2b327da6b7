"""Index-recovery rule: no float ``sqrt`` feeding integer recovery.

PR 5's corruption bug in one line: ``round(np.sqrt((2**27)**2 - 1))``
rounds *up*, so ``coeff_lm`` fabricated ``m < -l`` pairs near large
perfect squares.  Recovering a band-limit (or any index) from a count
must use exact integer arithmetic — ``math.isqrt`` or the repo's
:func:`repro.sht.transform.bandlimit_from_coeff_count` — never a float
square root truncated through ``int(...)`` or rounded through
``round(...)``.

The rule flags any ``int(...)`` or ``round(...)`` call whose argument
contains a ``sqrt`` call (``math.sqrt``, ``np.sqrt``, bare ``sqrt``).
``int(round(...))`` without a sqrt inside, and ``np.sqrt`` in numeric
(non-index) expressions, are untouched.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.reprolint.model import Finding, ModuleUnit
from tools.reprolint.rulebase import ProjectContext, Rule, dotted_name

__all__ = ["IndexRecoveryRule"]


def _contains_sqrt(node: ast.AST) -> "ast.Call | None":
    for inner in ast.walk(node):
        if isinstance(inner, ast.Call):
            name = dotted_name(inner.func)
            if name.split(".")[-1] == "sqrt":
                return inner
    return None


class IndexRecoveryRule(Rule):
    id = "index-recovery"
    description = (
        "int()/round() over a float sqrt silently corrupts recovered "
        "indices; use math.isqrt or bandlimit_from_coeff_count"
    )
    hint = (
        "use math.isqrt (exact for ints) or "
        "repro.sht.transform.bandlimit_from_coeff_count"
    )

    def check_module(
        self, unit: ModuleUnit, ctx: ProjectContext
    ) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Name) and node.func.id in {"int", "round"}):
                continue
            for arg in node.args:
                sqrt_call = _contains_sqrt(arg)
                if sqrt_call is not None:
                    sqrt_name = dotted_name(sqrt_call.func) or "sqrt"
                    findings.append(
                        unit.finding(
                            self.id, node,
                            f"`{node.func.id}({sqrt_name}(...))` recovers an "
                            f"integer through a float square root, which "
                            f"rounds the wrong way near large perfect "
                            f"squares; {self.hint}",
                        )
                    )
                    break
        return findings
