"""The generation path never densifies the factor, and cannot start to.

The emulator *is* the mixed-precision factor: ``load`` to a field multiplies
by its row panels (``CholeskyResult.correlate``).  ``lower()`` builds an
``8 k^2``-byte square — 134 MB at L = 64 — and stays for tests,
paper-figure benches and the ledger's ``linalg.lower_ms``; no layer between
an artifact and a served field may call it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
GUARDED = ("core", "scenarios", "serving", "api")
_FACTOR = re.compile(r"cholesky|factor", re.IGNORECASE)


def densifying_calls(source: str) -> list[int]:
    """Line numbers of ``<factor>.lower()`` calls.

    ``lower`` is also a ``str`` method, so it counts only on a receiver
    whose expression names a factor.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        receiver = ast.unparse(node.func.value)
        if node.func.attr == "lower" and _FACTOR.search(receiver):
            lines.append(node.lineno)
    return lines


def test_detector_sees_the_calls_it_guards_against():
    assert densifying_calls("xi = z @ self.cholesky.lower().T") == [1]
    assert densifying_calls("l = model.cholesky.lower()") == [1]
    assert densifying_calls("name = str(variant).strip().lower()") == []
    assert densifying_calls("xi = self.cholesky.correlate(z)") == []


def test_no_layer_from_artifact_to_field_densifies_the_factor():
    offenders = []
    scanned = dict.fromkeys(GUARDED, 0)
    for layer in GUARDED:
        for path in sorted((REPO_ROOT / "src" / "repro" / layer).rglob("*.py")):
            scanned[layer] += 1
            offenders += [
                f"{path.relative_to(REPO_ROOT)}:{line}"
                for line in densifying_calls(path.read_text(encoding="utf-8"))
            ]
    # The four packages, each with modules beside its __init__: no empty glob.
    assert all(count > 1 for count in scanned.values()), scanned
    assert not offenders, "the factor is densified at: " + ", ".join(offenders)
