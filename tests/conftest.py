"""Shared fixtures for the test-suite.

Fixtures are kept deliberately small (band-limits below ~12, a handful of
years of synthetic data) so the whole suite runs quickly on a single CPU
core while still exercising every code path of the emulator, the transform
and the mixed-precision solver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClimateEmulator, EmulatorConfig
from repro.data import Era5LikeConfig, Era5LikeGenerator
from repro.sht import Grid, SHTPlan


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic random generator shared across tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_lmax() -> int:
    """Band-limit used by the small SHT fixtures."""
    return 8


@pytest.fixture(scope="session")
def small_grid(small_lmax: int) -> Grid:
    """Smallest grid supporting the small band-limit."""
    return Grid.for_bandlimit(small_lmax)


@pytest.fixture(scope="session")
def small_plan(small_lmax: int, small_grid: Grid) -> SHTPlan:
    """Transform plan at the small band-limit."""
    return SHTPlan(lmax=small_lmax, grid=small_grid)


@pytest.fixture(scope="session")
def spd_matrix() -> np.ndarray:
    """A well-conditioned SPD matrix with covariance-like decay (64 x 64)."""
    local = np.random.default_rng(7)
    n = 64
    x = local.standard_normal((n, 2 * n))
    a = x @ x.T / (2 * n)
    decay = np.exp(-np.abs(np.subtract.outer(np.arange(n), np.arange(n))) / 12.0)
    return a * decay + 0.5 * np.eye(n)


@pytest.fixture(scope="session")
def small_ensemble():
    """A small synthetic ERA5-like ensemble (2 members, 3 years, lmax=8)."""
    config = Era5LikeConfig(
        lmax=8, n_years=3, steps_per_year=24, n_ensemble=2, nugget_std=0.05,
        # A strong forcing ramp keeps the trend coefficients identifiable
        # from such a short synthetic record.
        forcing_growth=1.0,
    )
    return Era5LikeGenerator(config, seed=42).generate()


@pytest.fixture(scope="session")
def innovation_covariance():
    """``U`` as a fit defines it (Eq. 9 plus the diagonal ridge), recomputed.

    The fit factors ``U`` in place and keeps only the factor, so tests that
    need ``U`` rebuild it in float64 from the training innovations.  Call
    with a fitted ``ClimateEmulator``, or with a fitted
    ``SpectralStochasticModel`` and the standardised residuals it was
    fitted on.
    """

    def compute(fitted, standardized=None) -> np.ndarray:
        model = fitted
        if standardized is None:
            ensemble = fitted.training
            residuals = fitted.trend_model.residuals(
                ensemble.data, ensemble.forcing_annual, fitted.trend_fit
            )
            standardized = fitted.scale.standardize(residuals)
            model = fitted.spectral_model
        innovations = model.var.innovations(model.spectral_series(standardized))
        flat = innovations.reshape(-1, innovations.shape[-1])
        cov = flat.T @ flat / flat.shape[0]
        ridge = model.covariance_jitter * float(np.mean(np.diag(cov)))
        return cov + np.eye(len(cov)) * ridge

    return compute


@pytest.fixture(scope="session")
def fitted_emulator(small_ensemble):
    """An emulator fitted on the small ensemble (shared, read-only)."""
    emulator = ClimateEmulator(
        EmulatorConfig(
            lmax=8,
            n_harmonics=2,
            var_order=1,
            tile_size=16,
            precision_variant="DP",
            rho_grid=(0.3, 0.7),
        )
    )
    emulator.fit(small_ensemble)
    return emulator


@pytest.fixture(scope="session")
def pipeline():
    """A full fit/emulate cycle at lmax=10 with the DP/SP variant (shared,
    read-only): ``(simulations, emulator, emulations)``."""
    sims = Era5LikeGenerator(
        Era5LikeConfig(lmax=10, n_years=4, steps_per_year=24, n_ensemble=2,
                       forcing_growth=1.0),
        seed=11,
    ).generate()
    emulator = ClimateEmulator(
        EmulatorConfig(
            lmax=10, n_harmonics=2, var_order=2, tile_size=25,
            precision_variant="DP/SP", rho_grid=(0.3, 0.7),
        )
    )
    emulator.fit(sims)
    emulations = emulator.emulate(n_realizations=3, rng=5)
    return sims, emulator, emulations
