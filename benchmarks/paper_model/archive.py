"""Storage arithmetic behind the paper's petabyte-savings claims.

Raw archives store every field value of every member: ``R * T * N_theta *
N_phi`` numbers per variable.  The emulator instead stores per-location
trend/scale parameters (``O(N_theta * N_phi)``), the diagonal VAR
coefficients (``O(P L^2)``) and the innovation covariance factor
(``O(L^4)``), from which arbitrarily many statistically consistent members
can be regenerated on demand.  For long records and large ensembles the
ratio is enormous — this module quantifies it, including the NCAR
$45/TB/year cost figure quoted in the introduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sht.grid import Grid

#: Cost of keeping one terabyte on disk for a year at NCAR (Section I).
DOLLARS_PER_TB_YEAR = 45.0

#: Context figures quoted in the introduction (bytes).
CMIP6_ARCHIVE = {
    "cmip3_total": 40.0e12,
    "cmip5_total": 2.0e15,
    "cmip6_total": 28.0e15,
    "ncar_cmip6_post_processed": 2.0e15,
    "giss_cmip6": 147.0e12,
    "scream_per_simulated_day": 4.5e12,
    "icon_dyamond_per_output_sample": 1.0e12,
}


@dataclass(frozen=True)
class StorageScenario:
    """A simulation archive whose storage the emulator can stand in for.

    Parameters
    ----------
    name:
        Label used in reports.
    grid:
        Spatial grid of the archived fields.
    n_years:
        Length of the record in years.
    steps_per_year:
        Temporal resolution (8760 hourly, 365 daily, 12 monthly).
    n_ensemble:
        Number of archived ensemble members.
    n_variables:
        Number of archived 2-D fields (the paper's study uses surface
        temperature only; CMIP archives store hundreds).
    bytes_per_value:
        Stored element size (4 for float32 archives).
    """

    name: str
    grid: Grid
    n_years: float
    steps_per_year: int
    n_ensemble: int = 1
    n_variables: int = 1
    bytes_per_value: int = 4

    @property
    def n_time(self) -> int:
        """Number of archived time steps."""
        return int(round(self.n_years * self.steps_per_year))

    @property
    def n_values(self) -> int:
        """Total stored values."""
        return (
            self.n_ensemble
            * self.n_variables
            * self.n_time
            * self.grid.npoints
        )


def archive_bytes(scenario: StorageScenario) -> float:
    """Raw archive size in bytes."""
    return float(scenario.n_values) * scenario.bytes_per_value


#: Per-location values of Eq. (2) (``beta_0, beta_1, beta_2, rho,
#: {a_k, b_k}_{k<=K}, sigma, v``): the paper's ``K = 5`` gives 14 when the
#: scale and nugget fields are included.
_TREND_PARAMS_PER_LOCATION = 14

#: Order ``P`` of the diagonal VAR priced for the archive comparison.
_VAR_ORDER = 3

#: Stored bytes per emulator parameter (double precision).
_BYTES_PER_PARAMETER = 8.0


def emulator_parameter_bytes(
    grid: Grid, lmax: int, store_full_covariance: bool = True
) -> float:
    """Footprint of the fitted emulator parameters in bytes.

    Fourteen per-location trend values per grid point, the ``P = 3``
    diagonal VAR matrices (``P L^2`` values) and either the full innovation
    covariance factor (``L^2 (L^2 + 1)/2``) or, when
    ``store_full_covariance`` is false, a diagonal approximation, all at
    8 bytes a value.
    """
    k = lmax * lmax
    per_location = _TREND_PARAMS_PER_LOCATION * grid.npoints
    var_params = _VAR_ORDER * k
    cov_params = k * (k + 1) // 2 if store_full_covariance else k
    return float(per_location + var_params + cov_params) * _BYTES_PER_PARAMETER


def savings_report(
    scenario: StorageScenario, lmax: int, store_full_covariance: bool = True
) -> dict:
    """Raw-versus-emulator storage comparison for a scenario.

    ``store_full_covariance=False`` corresponds to keeping only the diagonal
    innovation variances (appropriate at very high band-limits, where the
    dense ``L^2 x L^2`` factor would itself approach the raw-data volume).
    Costs are at :data:`DOLLARS_PER_TB_YEAR`.
    """
    raw = archive_bytes(scenario)
    emulator = emulator_parameter_bytes(scenario.grid, lmax, store_full_covariance)
    saved = max(raw - emulator, 0.0)
    return {
        "scenario": scenario.name,
        "raw_bytes": raw,
        "emulator_bytes": emulator,
        "saved_bytes": saved,
        "compression_factor": raw / emulator if emulator else float("inf"),
        "raw_petabytes": raw / 1.0e15,
        "saved_petabytes": saved / 1.0e15,
        "annual_cost_raw_usd": raw / 1.0e12 * DOLLARS_PER_TB_YEAR,
        "annual_cost_emulator_usd": emulator / 1.0e12 * DOLLARS_PER_TB_YEAR,
        "annual_savings_usd": saved / 1.0e12 * DOLLARS_PER_TB_YEAR,
    }
