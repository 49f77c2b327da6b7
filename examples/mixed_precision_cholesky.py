#!/usr/bin/env python
"""Mixed-precision tile Cholesky: accuracy / storage / speed trade-offs.

Demonstrates the HPC core of the paper on a real covariance matrix: the
four precision variants (DP, DP/SP, DP/SP/HP, DP/HP), their factor accuracy,
their storage footprint, the sender- versus receiver-side conversion counts,
and a projected time-to-solution on Summit using the performance model.

Run with:  python examples/mixed_precision_cholesky.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import ClimateEmulator, EmulatorConfig
from repro.data import Era5LikeConfig, Era5LikeGenerator
from repro.linalg import MixedPrecisionCholesky, generate_cholesky_tasks
from repro.linalg.policies import VARIANTS
from repro.storage import format_bytes
from repro.systems import SUMMIT, CholeskyPerformanceModel


def fitted_covariance(lmax: int = 14) -> np.ndarray:
    """Fit a small emulator and return its innovation covariance.

    The fit factors the covariance in place and keeps only the factor, so
    the covariance is rebuilt as ``L L^T`` — equal to it up to the
    factorisation's diagonal jitter.
    """
    sims = Era5LikeGenerator(
        Era5LikeConfig(lmax=lmax, n_years=4, steps_per_year=24, n_ensemble=2),
        seed=3,
    ).generate()
    emulator = ClimateEmulator(EmulatorConfig(lmax=lmax, var_order=2, tile_size=49))
    emulator.fit(sims)
    return emulator.spectral_model.cholesky.reconstruction()


def main() -> None:
    print("Fitting an emulator to obtain a real innovation covariance ...")
    cov = fitted_covariance()
    n = cov.shape[0]
    print(f"  covariance order: {n} x {n} (L^2 with L = {int(np.sqrt(n))})\n")

    reference = MixedPrecisionCholesky(tile_size=49, variant="DP").factorize(cov)

    print(f"{'variant':10s} {'time (ms)':>10s} {'factor err':>12s} "
          f"{'recon err':>12s} {'storage':>12s} {'conversions':>12s}")
    for variant in VARIANTS:
        solver = MixedPrecisionCholesky(tile_size=49, variant=variant, jitter=1e-6)
        start = time.perf_counter()
        result = solver.factorize(cov)
        elapsed = (time.perf_counter() - start) * 1e3
        print(f"{variant:10s} {elapsed:10.1f} {result.factor_error(reference.lower()):12.2e} "
              f"{result.relative_error(cov):12.2e} {format_bytes(result.storage_bytes):>12s} "
              f"{result.conversions:12d}")

    print("\nSender- vs receiver-side conversion (DP/HP policy):")
    for side in ("sender", "receiver"):
        tasks = generate_cholesky_tasks(n, 49, "DP/HP", conversion=side)
        conversions = sum(t.conversions for t in tasks)
        print(f"  {side:9s}: {conversions} conversions across {len(tasks)} tasks")

    print("\nProjected time-to-solution on Summit (performance model), 8.39M covariance:")
    model = CholeskyPerformanceModel(SUMMIT)
    for variant in VARIANTS:
        estimate = model.estimate(8_390_000, 2048, variant)
        print(f"  {variant:10s} {estimate.total_s:8.0f} s   {estimate.pflops:7.1f} PFlop/s")


if __name__ == "__main__":
    main()
