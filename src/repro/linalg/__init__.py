"""Tile-based mixed-precision dense linear algebra.

The emulator's heaviest kernel is the Cholesky factorisation of the
``L^2 x L^2`` innovation covariance matrix (Eq. 9).  The paper performs it
with a tile algorithm whose tiles are stored and computed at different
precisions (double, single, half) according to a band policy, executed as a
task DAG by PaRSEC.  This subpackage reproduces the numerical side of that
machinery with NumPy and SciPy:

* :mod:`repro.linalg.precision` — the precision descriptors (fp64 / fp32 /
  fp16): dtype, bytes per element and unit roundoff.
* :mod:`repro.linalg.flops` — the factorisation and GEMM flop counts the
  trace spans report.
* :mod:`repro.linalg.policies` — the paper's four tile-precision variants,
  DP, DP/SP, DP/SP/HP and DP/HP, as one closed table (``VARIANTS``).
* :mod:`repro.linalg.cholesky` — the tiled Cholesky factorisation: one
  left-looking loop in place, blocked by row panel (a SYRK and a GEMM per
  panel below, then the mixed-precision tile loop inside the panel), a
  factor held as lower row panels per stored precision, and the dense
  reference algorithm.

The task view of the same factorisation — kernel flops, sender- or
receiver-side conversions — is the paper model's
(``benchmarks/paper_model/tasks.py``).

The package exports what the pipeline calls: the factorisation, its flop
count and the tile precision map.  ``Precision``, ``VARIANTS`` and
``dense_cholesky`` are imported from their modules.
"""

from repro.linalg.flops import cholesky_flops
from repro.linalg.policies import tile_codes
from repro.linalg.cholesky import MixedPrecisionCholesky

__all__ = [
    "MixedPrecisionCholesky",
    "cholesky_flops",
    "tile_codes",
]
