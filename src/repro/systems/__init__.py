"""Machine catalogue and performance models for the four target systems.

The paper's performance study spans Frontier (AMD MI250X), Alps (NVIDIA
GH200), Leonardo (NVIDIA A100) and Summit (NVIDIA V100).  None of these is
available here, so the benchmark harness combines

* :mod:`repro.systems.catalog` — machine descriptions assembled from the
  paper's Section IV-D and public hardware specifications, and
* :mod:`repro.systems.perf_model` — a calibrated analytic performance model
  of the tile mixed-precision Cholesky, returning
  :class:`CostEstimate` values normalised by
  :func:`scaling_efficiencies`,

to regenerate the *shape* of Figures 5-8 and Table I: which precision
variant wins, by what factor, how weak/strong scaling behaves and where the
systems rank relative to each other.
"""

from repro.systems.catalog import (
    ALPS,
    FRONTIER,
    LEONARDO,
    SUMMIT,
    SYSTEMS,
    get_system,
)
from repro.systems.perf_model import (
    CholeskyPerformanceModel,
    CostEstimate,
    scaling_efficiencies,
)

__all__ = [
    "ALPS",
    "CholeskyPerformanceModel",
    "CostEstimate",
    "FRONTIER",
    "LEONARDO",
    "SUMMIT",
    "SYSTEMS",
    "get_system",
    "scaling_efficiencies",
]
