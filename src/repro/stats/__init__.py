"""Statistical-consistency diagnostics between simulations and emulations.

The paper's scientific claim is that the emulations are "statistically
consistent" with the simulations (Figures 2 and 4 and the companion JASA
paper).  This subpackage provides the quantitative diagnostics the
benchmarks and tests use to check that claim on the synthetic data:
per-location moments, area-weighted global statistics, quantiles,
temporal autocorrelation and angular power spectra.
"""

from repro.stats.moments import (
    field_moments,
    global_mean_series,
    pointwise_moment_fields,
    temporal_autocorrelation,
)
from repro.stats.consistency import consistency_report
from repro.stats.distributions import quantile_table, ks_distance

__all__ = [
    "consistency_report",
    "field_moments",
    "global_mean_series",
    "ks_distance",
    "pointwise_moment_fields",
    "quantile_table",
    "temporal_autocorrelation",
]
