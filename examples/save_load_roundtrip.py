#!/usr/bin/env python
"""Fit once, emulate anywhere: the emulator artifact round trip.

The paper's storage argument is that the fitted emulator's *parameters*
replace petabytes of raw ensemble output.  This script makes that concrete:

1. generate a synthetic simulation ensemble and fit the emulator,
2. ``repro.save`` the fitted emulator to a single NPZ artifact and compare
   the *measured* file size against the raw ensemble bytes,
3. ``repro.load`` it back (as a consumer on another machine would — the raw
   training data is not in the file) and verify the reload is bit-exact:
   the same seeded generator produces identical emulations,
4. stream a scenario run from the loaded artifact with bounded memory.

Run with:  PYTHONPATH=src python examples/save_load_roundtrip.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

import repro
from repro.storage import format_bytes


def main() -> None:
    print("=" * 70)
    print("Emulator artifact: fit once, emulate anywhere")
    print("=" * 70)

    # 1. Train on a synthetic ensemble.
    sim_config = repro.Era5LikeConfig(
        lmax=12, n_years=6, steps_per_year=24, n_ensemble=3, forcing_growth=0.8,
    )
    simulations = repro.Era5LikeGenerator(sim_config, seed=3).generate()
    print(f"\nTraining data: {simulations.n_ensemble} members x "
          f"{simulations.n_times} steps on {simulations.grid.shape}, "
          f"{format_bytes(simulations.storage_bytes(np.float32))} as float32")

    emulator = repro.fit(simulations, lmax=12, var_order=2, tile_size=36,
                         precision_variant="DP/SP")

    # 2. Persist the fitted parameters and measure what they cost on disk.
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "emulator.npz")
        repro.save(emulator, path)
        artifact_bytes = os.path.getsize(path)
        raw_bytes = simulations.storage_bytes(np.float32)
        print(f"\nSaved artifact:    {path}")
        print(f"  artifact size:   {format_bytes(artifact_bytes)} (measured on disk)")
        print(f"  raw ensemble:    {format_bytes(raw_bytes)}")
        print(f"  ratio:           {raw_bytes / artifact_bytes:.1f}x smaller — and the "
              f"artifact regenerates unlimited members")

        summary = emulator.storage_summary()
        print(f"  theoretical parameter bytes: "
              f"{format_bytes(summary['parameter_bytes'])} "
              f"(format overhead "
              f"{summary['measured_artifact_bytes'] / summary['parameter_bytes']:.2f}x)")

        # 3. Reload and verify bit-exactness.  The loaded emulator carries no
        #    raw training data, only fitted parameters + a training summary.
        loaded = repro.load(path)
        assert loaded.training is None
        original = emulator.emulate(2, rng=123)
        reloaded = loaded.emulate(2, rng=123)
        exact = np.array_equal(original.data, reloaded.data)
        print(f"\nReloaded emulator reproduces the original bit-exactly: {exact}")
        if not exact:
            raise SystemExit("round trip was not bit-exact!")

        # 4. Stream a 50-year scenario from the artifact, one year at a time.
        n_years = 50
        forcing = np.linspace(1.0, 6.0, n_years)
        peak_chunk = 0
        total = 0
        for chunk in repro.emulate_stream(
            path,
            n_realizations=1,
            n_times=n_years * sim_config.steps_per_year,
            annual_forcing=forcing,
            rng=np.random.default_rng(7),
        ):
            peak_chunk = max(peak_chunk, chunk.data.nbytes)
            total += chunk.n_times
        print(f"\nStreamed a {n_years}-year scenario ({total} steps) from the "
              f"artifact; peak chunk memory {format_bytes(peak_chunk)}")

    print("\nDone: the raw ensemble can be deleted; the artifact is the emulator.")


if __name__ == "__main__":
    main()
