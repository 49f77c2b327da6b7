"""Floating-point operation counts of the factorisation and the SHT GEMMs.

The performance figures in the paper are reported as achieved Flop/s for a
Cholesky factorisation, using the standard ``n^3 / 3`` operation count.
These are the totals the trace spans, the analytic performance model and
the benchmark harness report; the per-tile-kernel counts that weight the
tasks of the DAG are the paper model's (``benchmarks/paper_model/tasks.py``).
"""

from __future__ import annotations

__all__ = ["gemm_flops_mnk", "sht_contraction_flops", "cholesky_flops"]


def gemm_flops_mnk(m: int, n: int, k: int) -> float:
    """Flops of a rectangular ``(m x k) @ (k x n)`` multiply-accumulate."""
    return 2.0 * float(m) * float(n) * float(k)


def sht_contraction_flops(lmax: int, n_slices: int = 1, ntheta: int | None = None) -> float:
    """Flops of one GEMM contraction stage at band-limit ``lmax``.

    The plan executes the orders ``0 <= m < lmax`` only: order ``m``
    multiplies ``n_slices`` complex rows of ``lmax - m`` degrees against
    a *real* operator with ``ntheta`` columns (the grid's colatitudes;
    default ``lmax + 1``, the minimal grid), ``lmax (lmax + 1) ntheta /
    2`` multiply-adds per slice.  One complex multiply-add counts 2, as
    it always has here, so the figure stays comparable with the complex
    GEMM the benchmark harness times as the roofline; the zero padding
    of the operators is not counted.  This is the per-call attribute the
    SHT spans report, so a trace carries its own roofline numbers.
    """
    if ntheta is None:
        ntheta = lmax + 1
    return float(n_slices) * float(lmax) * float(lmax + 1) * float(ntheta)


def cholesky_flops(n: int) -> float:
    """Total flops of a dense Cholesky factorisation of order ``n``."""
    nf = float(n)
    return nf ** 3 / 3.0 + nf ** 2 / 2.0 + nf / 6.0
