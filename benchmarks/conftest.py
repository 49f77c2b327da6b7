"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section: it computes the same rows/series the paper reports
(via real small-scale execution where possible and the calibrated
performance model for machine-scale numbers), prints them so the run log
doubles as the reproduction record, and times a representative kernel with
``pytest-benchmark``.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClimateEmulator, EmulatorConfig
from repro.data import Era5LikeConfig, Era5LikeGenerator


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print an aligned table to stdout (captured in the benchmark log)."""
    str_rows = [[f"{v:.4g}" if isinstance(v, float) else str(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in str_rows:
        print("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))


@pytest.fixture(scope="session")
def bench_rng() -> np.random.Generator:
    """Deterministic generator for the benchmark harness."""
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def bench_simulations():
    """Training simulations shared by the science benchmarks (lmax=12)."""
    config = Era5LikeConfig(
        lmax=12, n_years=4, steps_per_year=24, n_ensemble=2,
        diurnal_amplitude_k=1.5, forcing_growth=1.0,
    )
    return Era5LikeGenerator(config, seed=7).generate()


@pytest.fixture(scope="session")
def bench_emulator(bench_simulations):
    """An emulator fitted on the shared benchmark simulations."""
    emulator = ClimateEmulator(
        EmulatorConfig(
            lmax=12, n_harmonics=2, var_order=2, tile_size=36,
            precision_variant="DP", rho_grid=(0.3, 0.7),
        )
    )
    emulator.fit(bench_simulations)
    return emulator


@pytest.fixture(scope="session")
def bench_covariance(bench_emulator) -> np.ndarray:
    """The fitted innovation covariance (144 x 144), used by solver benches.

    The fit factors the covariance in place and keeps only the factor, so
    this is ``L L^T``: symmetric positive definite, and the covariance up to
    the factorisation's diagonal jitter.
    """
    return bench_emulator.spectral_model.cholesky.reconstruction()
