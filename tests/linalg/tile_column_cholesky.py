"""The tile-column factorisation loop ``_factor_panels`` used to run: the oracle.

Per tile column ``b``, left-looking over *every* column to its left: per
panel from tile row ``b`` down one GEMM against columns ``0 .. b * nb``; the
diagonal tile's POTRF (relative ``jitter``, the escalating ridge retry); per
panel one TRSM (``solve_triangular``, which also refuses a NaN or inf below
the diagonal); then each tile not stored in double rounded to its precision
in place.  The production loop blocks the update by row panel and must agree
with this one to rounding (DP) or to the variants' own error (mixed).
"""

from __future__ import annotations

from itertools import groupby

import numpy as np
from scipy.linalg import LinAlgError, solve_triangular
from scipy.linalg import cholesky as scipy_cholesky
from scipy.linalg.blas import dgemm

from repro.linalg.cholesky import (
    CholeskyResult, _code_grid, _panel_bounds, _split, _working_panels,
)
from repro.linalg.policies import tile_codes
from repro.linalg.precision import _PRECISIONS, Precision


def tile_column_factor_panels(work: list, tile_size: int, codes: np.ndarray, jitter: float) -> list:
    """Overwrite the float64 row panels ``work`` with the factor; returns its panels."""
    nb, grid, n = tile_size, _code_grid(codes), work[-1][0].stop
    bounds = _panel_bounds(n, nb)
    owner = [p for p, (first, last, _) in enumerate(bounds) for _ in range(first, last)]
    factor = []
    for b in range(len(grid)):
        c0, c1, p = b * nb, min(b * nb + nb, n), owner[b]
        rows, panel = work[p]
        tile_row = panel[c0 - rows.start:c1 - rows.start]
        below = [(rows_q, panel_q.T) for rows_q, panel_q in work[p:]]
        if c0:
            left = np.asfortranarray(tile_row.T[:c0])
            for rows_q, wt in below:
                r = slice(max(c0, rows_q.start) - rows_q.start, rows_q.stop - rows_q.start)
                wt[c0:c1, r] = dgemm(-1.0, left, wt[:c0, r], 1.0, wt[c0:c1, r], trans_a=1)
        a = np.tril(tile_row[:, c0:c1])
        a = a + np.tril(a, -1).T
        if jitter > 0:
            a = a + np.eye(c1 - c0) * jitter * float(np.mean(np.diag(a)))
        scale = float(np.mean(np.abs(np.diag(a)))) or 1.0
        for ridge in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
            try:
                l = scipy_cholesky(a + np.eye(c1 - c0) * ridge * scale, lower=True)
                break
            except LinAlgError:
                continue
        else:
            raise LinAlgError(f"diagonal tile {b} is not positive definite even with a 1e-2 ridge")
        tile_row[:, c0:c1] = l.astype(_PRECISIONS[grid[b, b]].dtype)
        for rows_q, wt in below:
            r = slice(max(c1, rows_q.start) - rows_q.start, rows_q.stop - rows_q.start)
            if r.start < r.stop:
                wt[c0:c1, r] = solve_triangular(tile_row[:, c0:c1], wt[c0:c1, r], lower=True)
        for (q, code), run in groupby(range(b + 1, len(grid)), lambda i: (owner[i], grid[i, b])):
            if _PRECISIONS[code] is not Precision.DOUBLE:
                run, (rows_q, panel_q) = list(run), work[q]
                block = panel_q[run[0] * nb - rows_q.start:(run[-1] + 1) * nb - rows_q.start]
                block[:, c0:c1] = block[:, c0:c1].astype(_PRECISIONS[code].dtype)
        if c1 == rows.stop:
            factor.append((rows, _split(grid, bounds[p], n, nb, panel)))
            work[p] = None
    return factor


def tile_column_factorize(chol, matrix: np.ndarray) -> CholeskyResult:
    """``chol.factorize(matrix)`` (a ``MixedPrecisionCholesky``) through this loop."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n, nb = len(matrix), chol.tile_size
    work = _working_panels(n, nb)
    for rows, panel in work:
        panel[:rows.stop - rows.start] = np.tril(matrix[rows, :rows.stop], rows.start)
    codes = tile_codes(chol.variant, -(-n // nb))
    return CholeskyResult(
        n=n, tile_size=nb, tile_precision=codes,
        panels=tile_column_factor_panels(work, nb, codes, chol.jitter), variant=chol.variant,
    )

