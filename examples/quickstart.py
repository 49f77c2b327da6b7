#!/usr/bin/env python
"""Quickstart: fit the climate emulator and generate emulations.

This script walks the full pipeline of the paper (Fig. 3) at a small,
laptop-friendly configuration, using the top-level facade API:

1. generate a synthetic ERA5-like simulation ensemble,
2. ``repro.fit`` the spherical-harmonic emulator (distributed-lag trend,
   scale field, diagonal VAR, innovation covariance + mixed-precision
   Cholesky, the SHT backend and the precision variant both named),
3. draw emulations with ``repro.emulate`` and compare them statistically
   with the simulations,
4. stream a longer scenario run chunk by chunk with ``emulate_stream``,
5. print the storage accounting, including the *measured* size of the
   serialisable emulator artifact.

Run with:  PYTHONPATH=src python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.linalg.policies import VARIANTS
from repro.stats import consistency_report, field_moments
from repro.storage import format_bytes


def main() -> None:
    print("=" * 70)
    print("Exascale climate emulator reproduction — quickstart")
    print("=" * 70)

    # 1. Synthetic "simulations" (stands in for ERA5 / CESM2-LENS2 output).
    sim_config = repro.Era5LikeConfig(
        lmax=16,              # spherical-harmonic band-limit of the data
        n_years=5,
        steps_per_year=36,    # a coarse synthetic calendar
        n_ensemble=2,
        forcing_growth=0.8,
    )
    print(f"\nGenerating simulations: {sim_config.n_ensemble} members x "
          f"{sim_config.n_times} steps on a "
          f"{sim_config.resolved_grid().ntheta}x{sim_config.resolved_grid().nphi} grid ...")
    simulations = repro.Era5LikeGenerator(sim_config, seed=1).generate()
    stats = field_moments(simulations.data, simulations.grid)
    print(f"  global mean temperature: {stats['mean']:.2f} K, "
          f"std: {stats['std']:.2f} K, {simulations.n_data_points:,} data points")

    # 2. Fit through the facade.  The SHT is the paper's one transform, the
    #    Cholesky precision one of the paper's four variants.
    print(f"Available Cholesky variants: {list(VARIANTS)}")
    emulator = repro.fit(
        simulations,
        lmax=16,
        n_harmonics=2,
        var_order=2,
        tile_size=64,
        precision_variant="DP/SP",   # mixed-precision covariance factorisation
        sht_method="fast",           # the paper's FFT/Wigner transform, the only one
    )
    print(f"\nFitted: {emulator.config.describe()}")
    print(f"  spectral state size L^2 = {emulator.config.n_coeffs}, "
          f"Cholesky variant = {emulator.spectral_model.cholesky.variant}")

    # 3. Emulate and check statistical consistency.
    print("\nGenerating 3 emulation members ...")
    emulations = repro.emulate(emulator, 3, rng=7)
    report = consistency_report(simulations, emulations, lmax=16)
    print("  consistency with the simulations:")
    for key, value in report.as_dict().items():
        print(f"    {key:28s} {value:10.4f}")
    print(f"  verdict: {'CONSISTENT' if report.is_consistent() else 'INCONSISTENT'}")

    # 4. Stream a longer scenario run with bounded memory: chunks arrive one
    #    model year at a time and could be written straight to disk.
    n_stream_years = 20
    forcing = np.linspace(1.0, 5.0, n_stream_years)
    print(f"\nStreaming a {n_stream_years}-year scenario run, one year per chunk:")
    total_steps = 0
    for chunk in emulator.emulate_stream(
        n_realizations=1,
        n_times=n_stream_years * sim_config.steps_per_year,
        annual_forcing=forcing,
        rng=np.random.default_rng(99),
    ):
        total_steps += chunk.n_times
    print(f"  streamed {total_steps} steps in year-sized chunks of "
          f"{sim_config.steps_per_year} (peak memory ~one chunk)")

    # 5. Storage accounting: theoretical parameter bytes and the *measured*
    #    serialised artifact size.
    summary = emulator.storage_summary()
    print("\nStorage accounting:")
    print(f"  raw training data (float32): {format_bytes(summary['raw_bytes_float32'])}")
    print(f"  emulator parameters:         {format_bytes(summary['parameter_bytes'])}")
    print(f"  measured artifact (NPZ):     {format_bytes(summary['measured_artifact_bytes'])}")
    print(f"  compression factor:          {summary['compression_factor']:.1f}x theoretical, "
          f"{summary['measured_compression_factor']:.1f}x measured "
          f"(grows with record length and ensemble size)")


if __name__ == "__main__":
    main()
