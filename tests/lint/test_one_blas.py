"""The factorisation loop calls one BLAS, and cannot start calling two.

numpy and scipy each bundle their own OpenBLAS with its own thread pool.
``repro.linalg.cholesky._factor_in_place`` makes every GEMM, POTRF and
TRSM call through ``scipy.linalg``; one numpy product in that loop puts the
second pool back and the two spin against each other (k = 2,304 on 2 cores:
0.277 s mixed against 0.114 s all through scipy).
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CHOLESKY = REPO_ROOT / "src" / "repro" / "linalg" / "cholesky.py"
_NUMPY_PRODUCTS = {"matmul", "dot", "vdot", "inner", "outer", "einsum", "tensordot"}


def numpy_blas_calls(source: str, function: str) -> list[int]:
    """Line numbers of ``@``, numpy products and ``np.linalg`` calls in ``function``."""
    tree = ast.parse(source)
    body = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
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


def test_the_factorisation_loop_uses_only_scipy_blas():
    lines = numpy_blas_calls(CHOLESKY.read_text(encoding="utf-8"), "_factor_in_place")
    assert not lines, f"numpy BLAS in the factorisation loop at {CHOLESKY.name} lines {lines}"
