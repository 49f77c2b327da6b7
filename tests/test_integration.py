"""End-to-end integration tests across subsystems.

These exercise the full pipeline of the paper's Fig. 3 — synthetic
simulation ensemble -> emulator fit (trend, scale, SHT, VAR, covariance,
mixed-precision Cholesky) -> emulation -> consistency diagnostics -> storage
summary — in one place, at a slightly larger configuration than the unit
fixtures.
"""

import numpy as np

from repro.scenarios import resolve_scenario
from repro.linalg import MixedPrecisionCholesky
from repro.stats import consistency_report


class TestFullPipeline:
    def test_emulations_consistent_with_simulations(self, pipeline):
        sims, _, emulations = pipeline
        report = consistency_report(sims, emulations, lmax=10)
        assert report.is_consistent()
        assert report.pointwise_mean_rmse_k < 2.0
        assert report.spectral_distance < 1.0

    def test_seasonal_cycle_reproduced(self, pipeline):
        """Monthly climatology of the emulation tracks the simulation."""
        sims, _, emulations = pipeline
        steps = sims.steps_per_year
        sim_cycle = sims.data.reshape(2, -1, steps, *sims.grid.shape).mean(axis=(0, 1))
        emu_cycle = emulations.data.reshape(3, -1, steps, *sims.grid.shape).mean(axis=(0, 1))
        # Compare the phase/amplitude of the cycle at a mid-latitude row.
        row = sims.grid.ntheta // 4
        corr = np.corrcoef(sim_cycle[:, row, :].mean(axis=1), emu_cycle[:, row, :].mean(axis=1))[0, 1]
        assert corr > 0.9

    def test_spatial_variance_structure_reproduced(self, pipeline):
        sims, _, emulations = pipeline
        sim_std = sims.data.std(axis=(0, 1))
        emu_std = emulations.data.std(axis=(0, 1))
        corr = np.corrcoef(sim_std.ravel(), emu_std.ravel())[0, 1]
        assert corr > 0.8

    def test_more_ensemble_members_free_of_recomputation(self, pipeline):
        _, emulator, _ = pipeline
        extra = emulator.emulate(n_realizations=1, n_times=12, rng=np.random.default_rng(9))
        assert extra.data.shape[0] == 1 and extra.n_times == 12

    def test_scenario_projection(self, pipeline):
        """A strongly forced scenario warms relative to a zero-forcing run.

        The same seed is used for both runs so the stochastic component
        cancels and only the forced response differs.
        """
        _, emulator, _ = pipeline
        strong = resolve_scenario("high-emissions").annual_forcing(4) + 6.0
        projection = emulator.emulate(1, annual_forcing=strong, rng=np.random.default_rng(2))
        baseline = emulator.emulate(1, annual_forcing=np.zeros(4), rng=np.random.default_rng(2))
        assert projection.data.mean() > baseline.data.mean()

    def test_storage_summary_compresses_the_training_data(self, pipeline):
        _, emulator, _ = pipeline
        summary = emulator.storage_summary()
        assert summary["compression_factor"] > 1.0


class TestCovarianceSolverIntegration:
    def test_emulator_covariance_through_all_precision_variants(
        self, pipeline, innovation_covariance
    ):
        """Factorising the fitted covariance with every variant stays accurate."""
        _, emulator, _ = pipeline
        cov = innovation_covariance(emulator)
        reference = MixedPrecisionCholesky(tile_size=25, variant="DP").factorize(cov)
        for variant, tol in (("DP/SP", 1e-4), ("DP/SP/HP", 0.1), ("DP/HP", 0.1)):
            result = MixedPrecisionCholesky(tile_size=25, variant=variant, jitter=1e-6).factorize(cov)
            assert result.factor_error(reference.lower()) < tol
