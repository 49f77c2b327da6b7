"""Tile-based mixed-precision dense linear algebra.

The emulator's heaviest kernel is the Cholesky factorisation of the
``L^2 x L^2`` innovation covariance matrix (Eq. 9).  The paper performs it
with a tile algorithm whose tiles are stored and computed at different
precisions (double, single, half) according to a band policy, executed as a
task DAG by PaRSEC.  This subpackage reproduces the numerical side of that
machinery with NumPy and SciPy:

* :mod:`repro.linalg.precision` — the precision descriptors (fp64 / fp32 /
  fp16), conversion helpers and byte accounting.
* :mod:`repro.linalg.flops` — kernel and factorisation flop counts.
* :mod:`repro.linalg.policies` — the precision-assignment policies: DP,
  DP/SP, DP/SP/HP, DP/HP band variants plus a data-adaptive (tile-centric)
  policy, and the sender- / receiver-side conversion choice.
* :mod:`repro.linalg.cholesky` — the tiled Cholesky factorisation: one
  left-looking blocked loop in place (real mixed-precision execution), a
  factor held as lower row panels per stored precision, its closed-form
  flop and conversion accounting, and the dense reference algorithm.
* :mod:`repro.linalg.tasks` — the right-looking POTRF / TRSM / SYRK / GEMM
  task list of the same factorisation and its dependency analysis
  (critical path, width profile), which the performance figures price.
"""

from repro.linalg.precision import Precision, PRECISIONS
from repro.linalg.flops import (
    cholesky_flops,
    gemm_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)
from repro.linalg.policies import (
    CHOLESKY_VARIANTS,
    ConversionSide,
    VARIANTS,
    adaptive_policy,
    band_policy,
    variant_policy,
)
from repro.linalg.cholesky import MixedPrecisionCholesky, dense_cholesky
from repro.linalg.tasks import generate_cholesky_tasks

__all__ = [
    "CHOLESKY_VARIANTS",
    "ConversionSide",
    "MixedPrecisionCholesky",
    "PRECISIONS",
    "Precision",
    "VARIANTS",
    "adaptive_policy",
    "band_policy",
    "cholesky_flops",
    "dense_cholesky",
    "gemm_flops",
    "generate_cholesky_tasks",
    "potrf_flops",
    "syrk_flops",
    "trsm_flops",
    "variant_policy",
]
