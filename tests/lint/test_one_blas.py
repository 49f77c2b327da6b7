"""The fit's covariance fill and factorisation loop call one BLAS, and cannot
start calling two.

numpy and scipy each bundle their own OpenBLAS with its own thread pool.
``repro.linalg.cholesky._factor_panels`` makes every SYRK, GEMM, POTRF and
TRSM call, and ``MixedPrecisionCholesky.covariance_panels`` every SYRK and
GEMM of the panel fill before it, through ``scipy.linalg``; one numpy
product in either, or in any module function they call, puts the second
pool back and the two spin against each other (k = 2,304 on 2 cores:
0.277 s mixed against 0.114 s all through scipy).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
CHOLESKY = REPO_ROOT / "src" / "repro" / "linalg" / "cholesky.py"
_NUMPY_PRODUCTS = {"matmul", "dot", "vdot", "inner", "outer", "einsum", "tensordot"}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name
    )


def reachable(source: str, function: str) -> list[str]:
    """``function`` and every module-level function it calls, transitively."""
    tree = ast.parse(source)
    module_functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, pending = [], [function]
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.append(name)
        pending += [
            node.func.id for node in ast.walk(_function(tree, name))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in module_functions
        ]
    return seen


def numpy_blas_calls(source: str, function: str) -> list[int]:
    """Line numbers of ``@``, numpy products and ``np.linalg`` calls in ``function``."""
    body = _function(ast.parse(source), function)
    lines = []
    for node in ast.walk(body):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            module, _, attr = ast.unparse(node.func).rpartition(".")
            if (
                module in ("np.linalg", "numpy.linalg")
                or (module in ("np", "numpy") and attr in _NUMPY_PRODUCTS)
                or (module and attr == "dot")  # ndarray.dot
            ):
                lines.append(node.lineno)
    return lines


def test_detector_sees_the_calls_it_guards_against():
    def calls(body: str) -> list[int]:
        return numpy_blas_calls(f"def f(a, b):\n    {body}\n", "f")

    assert calls("return a @ b") == [2]
    assert calls("a @= b") == [2]
    assert calls("return np.matmul(a, b)") == [2]
    assert calls("return a.dot(b)") == [2]
    assert calls("return np.linalg.cholesky(a)") == [2]
    assert calls("return dgemm(1.0, a, b)") == []
    assert calls("return scipy_cholesky(a, lower=True)") == []
    assert calls("return np.tril(a) + np.eye(3)") == []


def test_the_guard_follows_the_calls_into_helpers():
    source = (
        "def loop(a, b):\n    return step(a, b)\n\n"
        "def step(a, b):\n    return inner(a) + b\n\n"
        "def inner(a):\n    return a @ a\n"
    )
    assert reachable(source, "loop") == ["loop", "step", "inner"]
    assert {f: numpy_blas_calls(source, f) for f in reachable(source, "loop")} == {
        "loop": [], "step": [], "inner": [8],
    }


def test_the_loop_is_guarded_with_every_helper_it_calls():
    helpers = set(reachable(CHOLESKY.read_text(encoding="utf-8"), "_factor_panels"))
    assert {"_syrk_update", "_potrf", "_split", "_parts"} <= helpers


@pytest.mark.parametrize("root", ["covariance_panels", "_factor_panels"])
def test_the_fit_uses_only_scipy_blas(root):
    source = CHOLESKY.read_text(encoding="utf-8")
    found = {f: numpy_blas_calls(source, f) for f in reachable(source, root)}
    assert not any(found.values()), f"numpy BLAS under {root} in {CHOLESKY.name}: {found}"
