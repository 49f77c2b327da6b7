"""Floating-point operation counts for tile kernels and factorisations.

The performance figures in the paper are reported as achieved Flop/s for a
Cholesky factorisation, using the standard ``n^3 / 3`` operation count.
These helpers provide the per-kernel counts used to weight tasks in the DAG
and the closed-form totals used by the analytic performance model and the
benchmark harness.
"""

from __future__ import annotations

__all__ = [
    "potrf_flops",
    "trsm_flops",
    "syrk_flops",
    "gemm_flops",
    "gemm_flops_mnk",
    "sht_contraction_flops",
    "cholesky_flops",
    "cholesky_tile_counts",
]


def potrf_flops(nb: int) -> float:
    """Flops of a Cholesky factorisation of an ``nb x nb`` tile (~nb^3/3)."""
    n = float(nb)
    return n ** 3 / 3.0 + n ** 2 / 2.0 + n / 6.0


def trsm_flops(nb: int) -> float:
    """Flops of a triangular solve update of an ``nb x nb`` tile (~nb^3)."""
    n = float(nb)
    return n ** 3


def syrk_flops(nb: int) -> float:
    """Flops of a symmetric rank-``nb`` update of an ``nb x nb`` tile (~nb^3)."""
    n = float(nb)
    return n ** 3 + n ** 2


def gemm_flops(nb: int) -> float:
    """Flops of an ``nb x nb x nb`` matrix multiply-accumulate (2 nb^3)."""
    n = float(nb)
    return 2.0 * n ** 3


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


def cholesky_tile_counts(n_tiles: int) -> dict[str, int]:
    """Number of tasks of each kind in a tiled Cholesky with ``n_tiles`` tiles.

    ``POTRF``: one per diagonal tile; ``TRSM``: one per sub-diagonal tile of
    each panel; ``SYRK``: one per diagonal update; ``GEMM``: the strictly
    lower-triangular updates.
    """
    t = n_tiles
    return {
        "POTRF": t,
        "TRSM": t * (t - 1) // 2,
        "SYRK": t * (t - 1) // 2,
        "GEMM": t * (t - 1) * (t - 2) // 6,
    }
