"""State-protocol rule: ``state_dict`` and ``from_state`` travel together.

Every pipeline stage serialises through the uniform
``state_dict()`` / ``from_state()`` protocol (PR 1), and the artifact
layer round-trips whatever the pair produces.  A class that grows one
half without the other either cannot be persisted or cannot be
restored — a gap that only surfaces when an artifact fails to load.
The rule requires per class:

* ``state_dict`` defined  ⇒  a ``from_state`` **classmethod** defined;
* ``from_state`` defined  ⇒  a ``state_dict`` method defined;
* ``from_state``, when present, carries the ``@classmethod`` decorator
  (an instance-method ``from_state`` cannot restore from scratch).

Inherited halves count only when defined in the same class body —
subclasses that override neither are fine because the base already
satisfies the pairing.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.reprolint.model import Finding, ModuleUnit
from tools.reprolint.rulebase import ProjectContext, Rule, dotted_name

__all__ = ["StateProtocolRule"]


def _is_classmethod(func: ast.FunctionDef) -> bool:
    return any(
        dotted_name(decorator).split(".")[-1] == "classmethod"
        for decorator in func.decorator_list
    )


class StateProtocolRule(Rule):
    id = "state-protocol"
    description = (
        "a class defining state_dict must define a from_state classmethod "
        "and vice versa"
    )
    hint = (
        "add the missing half so the class round-trips through "
        "EmulatorArtifact like every other pipeline stage"
    )

    def check_module(
        self, unit: ModuleUnit, ctx: ProjectContext
    ) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            state_dict = methods.get("state_dict")
            from_state = methods.get("from_state")
            if state_dict is not None and from_state is None:
                findings.append(
                    unit.finding(
                        self.id, node,
                        f"{node.name} defines state_dict but no from_state "
                        f"classmethod; {self.hint}",
                    )
                )
            elif from_state is not None and state_dict is None:
                findings.append(
                    unit.finding(
                        self.id, node,
                        f"{node.name} defines from_state but no state_dict; "
                        f"{self.hint}",
                    )
                )
            if (
                from_state is not None
                and isinstance(from_state, ast.FunctionDef)
                and not _is_classmethod(from_state)
            ):
                findings.append(
                    unit.finding(
                        self.id, from_state,
                        f"{node.name}.from_state is not a classmethod; "
                        f"restoration must not require an instance",
                    )
                )
        return findings
