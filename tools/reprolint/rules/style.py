"""Baseline hygiene rules: mutable default arguments and silenced excepts.

Small, classic, and each has bitten a NumPy codebase somewhere:

* ``mutable-default`` — a ``def f(x, acc=[])`` default is evaluated once
  and shared across calls; in a cached/long-lived process (the serving
  layer, campaign workers) that is cross-request state leakage.
* ``bare-except`` — a bare ``except:`` catches ``KeyboardInterrupt`` and
  ``SystemExit``; an ``except ...: pass`` of any breadth silently eats
  the error.  Both hide exactly the corruption classes this repo's
  invariants exist to surface.  (``except BaseException:`` followed by
  cleanup + ``raise``, the tmp-file pattern in the storage layer, is
  explicitly fine: it re-raises.)
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.reprolint.model import Finding, ModuleUnit
from tools.reprolint.rulebase import ProjectContext, Rule, dotted_name

__all__ = ["BareExceptRule", "MutableDefaultRule"]

_MUTABLE_LITERALS = (
    ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp,
)
_MUTABLE_CALLS = {"dict", "list", "set", "OrderedDict", "defaultdict", "deque"}


class MutableDefaultRule(Rule):
    id = "mutable-default"
    description = "default argument values must not be mutable containers"
    hint = "default to None and create the container inside the function"

    def check_module(
        self, unit: ModuleUnit, ctx: ProjectContext
    ) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(unit.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for default in (*node.args.defaults, *node.args.kw_defaults):
                if default is None:
                    continue
                mutable = isinstance(default, _MUTABLE_LITERALS) or (
                    isinstance(default, ast.Call)
                    and dotted_name(default.func).split(".")[-1] in _MUTABLE_CALLS
                )
                if mutable:
                    findings.append(
                        unit.finding(
                            self.id, default,
                            f"{node.name} has a mutable default argument, "
                            f"shared across every call; {self.hint}",
                        )
                    )
        return findings


class BareExceptRule(Rule):
    id = "bare-except"
    description = "no bare `except:` and no `except ...: pass` error swallowing"
    hint = (
        "catch the narrowest exception type that the handler can actually "
        "handle, and never discard the error without acting on it"
    )

    def check_module(
        self, unit: ModuleUnit, ctx: ProjectContext
    ) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    unit.finding(
                        self.id, node,
                        f"bare `except:` also catches KeyboardInterrupt and "
                        f"SystemExit; {self.hint}",
                    )
                )
            if len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
                findings.append(
                    unit.finding(
                        self.id, node,
                        f"`except ...: pass` silently swallows the error; "
                        f"{self.hint}",
                    )
                )
        return findings
