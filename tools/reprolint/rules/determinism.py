"""Determinism rule: randomness and wall-clock reads inside ``src/repro``.

The emulator's outputs are contractually a pure function of
``(artifact, seed, request)`` — campaigns, the serving layer and every
bit-identity test depend on it.  That only holds if randomness flows
through explicitly passed ``numpy.random.Generator`` /
``SeedSequence`` objects and nothing consults process-global entropy or
the wall clock.  Inside ``src/repro`` this rule therefore forbids:

* ``np.random.seed(...)`` and every legacy global-state draw
  (``np.random.normal``, ``np.random.rand``, ...) — only the explicit
  constructors (``default_rng``, ``SeedSequence``, the bit generators)
  are allowed;
* the stdlib ``random`` module altogether;
* ``time.time``/``time.time_ns`` and ``datetime.now``/``utcnow``/
  ``today`` (monotonic timers like ``time.perf_counter`` remain fine:
  they feed stats, not outputs).

Benchmarks, tools and tests are out of scope: seeding a benchmark is
normal.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.reprolint.model import Finding, ModuleUnit
from tools.reprolint.rulebase import ProjectContext, Rule, dotted_name

__all__ = ["DeterminismRule"]

#: np.random attributes that construct explicit, passable RNG state.
_ALLOWED_NP_RANDOM = {
    "Generator", "SeedSequence", "BitGenerator", "default_rng",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
}
_WALL_CLOCK = {"time.time", "time.time_ns"}
_DATETIME_CALLS = {"now", "utcnow", "today", "fromtimestamp"}


class DeterminismRule(Rule):
    id = "determinism"
    description = (
        "src/repro must draw randomness from passed-in Generators/"
        "SeedSequences and never read global entropy or the wall clock"
    )
    hint = (
        "thread an np.random.Generator (seeded from a SeedSequence) through "
        "the call instead"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check_module(
        self, unit: ModuleUnit, ctx: ProjectContext
    ) -> Iterable[Finding]:
        findings: list[Finding] = []

        stdlib_random_names: set[str] = set()
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        stdlib_random_names.add(alias.asname or "random")
                        findings.append(
                            unit.finding(
                                self.id, node,
                                "stdlib `random` draws from hidden global "
                                f"state; {self.hint}",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    findings.append(
                        unit.finding(
                            self.id, node,
                            "stdlib `random` draws from hidden global state; "
                            f"{self.hint}",
                        )
                    )

        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name:
                continue
            parts = name.split(".")
            # np.random.* / numpy.random.* legacy global-state API.
            if len(parts) >= 3 and parts[-3] in {"np", "numpy"} and parts[-2] == "random":
                if parts[-1] not in _ALLOWED_NP_RANDOM:
                    findings.append(
                        unit.finding(
                            self.id, node,
                            f"`{name}` uses numpy's hidden global RNG; "
                            f"{self.hint}",
                        )
                    )
            elif parts[0] in stdlib_random_names:
                findings.append(
                    unit.finding(
                        self.id, node,
                        f"`{name}` draws from stdlib random's global state; "
                        f"{self.hint}",
                    )
                )
            elif name in _WALL_CLOCK:
                findings.append(
                    unit.finding(
                        self.id, node,
                        f"`{name}` reads the wall clock, making outputs "
                        "time-dependent; use time.perf_counter for intervals "
                        "or pass timestamps in",
                    )
                )
            elif (
                len(parts) >= 2
                and parts[-1] in _DATETIME_CALLS
                and parts[-2] in {"datetime", "date"}
            ):
                findings.append(
                    unit.finding(
                        self.id, node,
                        f"`{name}` reads the wall clock, making outputs "
                        "time-dependent; pass timestamps in explicitly",
                    )
                )
        return findings
