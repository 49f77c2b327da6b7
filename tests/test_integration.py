"""End-to-end integration tests across subsystems.

These exercise the full pipeline of the paper's Fig. 3 — synthetic
simulation ensemble -> emulator fit (trend, scale, SHT, VAR, covariance,
mixed-precision Cholesky) -> emulation -> consistency diagnostics -> storage
accounting -> performance projection — in one place, at a slightly larger
configuration than the unit fixtures.
"""

import numpy as np
import pytest

from repro.core import ClimateEmulator, EmulatorConfig
from repro.data import Era5LikeConfig, Era5LikeGenerator
from repro.data.forcing import scenario_forcing
from repro.linalg import MixedPrecisionCholesky, generate_cholesky_tasks
from repro.linalg.tasks import build_task_graph
from repro.stats import consistency_report
from repro.storage import StorageScenario, savings_report
from repro.systems import SUMMIT, CholeskyPerformanceModel


@pytest.fixture(scope="module")
def pipeline():
    """A full fit/emulate cycle at lmax=10 with the DP/SP variant."""
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
    emulations = emulator.emulate(n_realizations=3, rng=np.random.default_rng(5))
    return sims, emulator, emulations


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
        strong = scenario_forcing("high-emissions", 4) + 6.0
        projection = emulator.emulate(1, annual_forcing=strong, rng=np.random.default_rng(2))
        baseline = emulator.emulate(1, annual_forcing=np.zeros(4), rng=np.random.default_rng(2))
        assert projection.data.mean() > baseline.data.mean()

    def test_storage_summary_scales_to_paper_settings(self, pipeline):
        _, emulator, _ = pipeline
        summary = emulator.storage_summary()
        assert summary["compression_factor"] > 1.0
        # The same accounting for a CMIP-style multi-variable, multi-member
        # archive at the paper's grid saves petabytes.
        from repro.sht.grid import Grid

        paper = savings_report(
            StorageScenario(
                "CMIP-style archive", Grid.era5(), 35, 8760,
                n_ensemble=10, n_variables=100,
            ),
            lmax=720,
        )
        assert paper["saved_petabytes"] > 0.5


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

    def test_dag_analysis_of_emulator_cholesky(self, pipeline, innovation_covariance):
        """The task model of the covariance factorisation: its DAG analysis
        agrees with the factorisation's own accounting."""
        _, emulator, _ = pipeline
        n = len(innovation_covariance(emulator))  # 100: 4 x 4 tiles of 25
        result = emulator.spectral_model.cholesky
        graph = build_task_graph(generate_cholesky_tasks(n, 25, "DP/SP"))
        assert graph.n_tasks == result.n_tasks == 20
        assert graph.total_flops() == pytest.approx(result.total_flops, rel=1e-12)
        length, path = graph.critical_path(cost=lambda t: 1.0)
        # POTRF -> TRSM -> SYRK per panel, then the last POTRF.
        assert (length, path[:3], path[-1]) == (
            10.0, ["POTRF(0)", "TRSM(1,0)", "SYRK(1,0)"], "POTRF(3)"
        )
        assert graph.parallelism_profile() == [1, 3, 6, 1, 2, 3, 1, 1, 1, 1]
        assert 1.0 < graph.average_parallelism() < graph.max_parallelism() == 6

    def test_performance_model_for_paper_scale_covariance(self):
        """L = 5219 gives a ~27.2M-order covariance, the paper's largest run."""
        lmax = 5219
        matrix_size = lmax * lmax
        assert matrix_size == pytest.approx(27_240_000, rel=0.01)
        estimate = CholeskyPerformanceModel(SUMMIT).estimate(matrix_size, 3072, "DP/HP")
        assert estimate.pflops > 100.0
