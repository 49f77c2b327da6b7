"""Tests of the end-to-end emulator, the generator and config."""

import numpy as np
import pytest

from repro.core import ClimateEmulator, EmulatorConfig
from repro.scenarios import resolve_scenario
from repro.stats import consistency_report


class TestEmulatorConfig:
    def test_defaults_valid(self):
        cfg = EmulatorConfig()
        assert cfg.n_coeffs == cfg.lmax ** 2
        assert cfg.trend_design_size() == 3 + 2 * cfg.n_harmonics

    def test_validation(self):
        with pytest.raises(ValueError):
            EmulatorConfig(lmax=0)
        with pytest.raises(ValueError):
            EmulatorConfig(var_order=-1)
        with pytest.raises(ValueError):
            EmulatorConfig(rho_grid=(1.5,))
        with pytest.raises(ValueError):
            EmulatorConfig(tile_size=0)

    def test_describe(self):
        desc = EmulatorConfig(lmax=4).describe()
        assert desc["lmax"] == 4 and desc["n_coeffs"] == 16


class TestClimateEmulatorFit:
    def test_fit_and_flags(self, fitted_emulator):
        assert fitted_emulator.is_fitted
        desc = fitted_emulator.describe()
        assert desc["fitted"] is True
        assert desc["cholesky_variant"] == "DP"

    def test_unfitted_operations_raise(self):
        emulator = ClimateEmulator(EmulatorConfig(lmax=4))
        assert not emulator.is_fitted
        with pytest.raises(RuntimeError):
            emulator.emulate()
        with pytest.raises(RuntimeError):
            emulator.parameter_count()

    def test_grid_too_small_rejected(self, small_ensemble):
        emulator = ClimateEmulator(EmulatorConfig(lmax=64))
        with pytest.raises(ValueError):
            emulator.fit(small_ensemble)

    def test_parameter_and_storage_accounting(self, fitted_emulator, small_ensemble):
        params = fitted_emulator.parameter_count()
        assert params > 0
        summary = fitted_emulator.storage_summary()
        assert summary["parameter_bytes"] == params * 8
        assert summary["raw_bytes_float32"] == small_ensemble.n_data_points * 4
        assert summary["compression_factor"] > 1.0


class TestEmulation:
    def test_emulation_shapes_and_defaults(self, fitted_emulator, small_ensemble):
        out = fitted_emulator.emulate(n_realizations=2, rng=0)
        assert out.data.shape == (2, small_ensemble.n_times) + small_ensemble.grid.shape
        assert out.metadata["source"] == "emulator"
        assert out.steps_per_year == small_ensemble.steps_per_year

    def test_statistical_consistency_with_training(self, fitted_emulator, small_ensemble):
        out = fitted_emulator.emulate(n_realizations=2, rng=7)
        report = consistency_report(small_ensemble, out, lmax=8)
        assert abs(report.global_mean_diff_k) < 1.0
        assert abs(report.global_std_ratio - 1.0) < 0.2
        assert report.ks_distance < 0.15
        assert report.is_consistent()

    def test_emulations_differ_across_realizations(self, fitted_emulator):
        out = fitted_emulator.emulate(n_realizations=2, rng=1)
        assert not np.allclose(out.data[0], out.data[1])

    def test_custom_length_and_scenario_pathway(self, fitted_emulator):
        forcing = resolve_scenario("high-emissions").annual_forcing(5)
        out = fitted_emulator.emulate(
            n_realizations=1, n_times=36, annual_forcing=forcing,
            rng=np.random.default_rng(2),
        )
        assert out.n_times == 36
        assert np.array_equal(out.forcing_annual, forcing)

    def test_forcing_level_changes_mean_level(self, fitted_emulator):
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        low = fitted_emulator.emulate(1, n_times=48, annual_forcing=np.full(2, 0.0), rng=rng1)
        high = fitted_emulator.emulate(1, n_times=48, annual_forcing=np.full(2, 8.0), rng=rng2)
        assert high.data.mean() > low.data.mean() + 0.5

    def test_nugget_toggle(self, fitted_emulator):
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        with_nugget = fitted_emulator.emulate(1, rng=rng1, include_nugget=True)
        without = fitted_emulator.emulate(1, rng=rng2, include_nugget=False)
        assert with_nugget.data.std() >= without.data.std()

    def test_generator_argument_validation(self, fitted_emulator):
        generator = fitted_emulator.generator()
        with pytest.raises(ValueError):
            generator.generate_stream_multi([], 10, np.ones(1))
        with pytest.raises(ValueError, match="n_times"):
            generator.generate_stream_multi([np.random.default_rng(0)], 0, np.ones(1))

    def test_rng_zero_is_seed_zero(self, fitted_emulator):
        """``rng=0`` is the seed 0, not fresh entropy."""
        first = fitted_emulator.emulate(2, n_times=8, rng=0)
        again = fitted_emulator.emulate(2, n_times=8, rng=np.int64(0))
        assert np.array_equal(first.data, again.data)
        member_1 = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1,)))
        assert np.array_equal(
            first.data[1], fitted_emulator.emulate(1, n_times=8, rng=member_1).data[0]
        )
        fresh = fitted_emulator.emulate(2, n_times=8, rng=None)
        assert not np.array_equal(first.data, fresh.data)

    def test_a_generator_seeds_one_member_only(self, fitted_emulator):
        """A shared Generator is refused for several members, naming the int form."""
        with pytest.raises(ValueError, match="int seed"):
            fitted_emulator.emulate(2, n_times=8, rng=np.random.default_rng(3))
        with pytest.raises(ValueError, match="int seed"):
            fitted_emulator.emulate_stream(2, n_times=8, rng=np.random.default_rng(3))
        with pytest.raises(TypeError, match="rng"):
            fitted_emulator.emulate(1, n_times=8, rng=2.5)


class TestMixedPrecisionEmulator:
    @pytest.mark.parametrize("variant", ["DP/SP", "DP/HP"])
    def test_reduced_precision_fit_remains_consistent(self, small_ensemble, variant):
        emulator = ClimateEmulator(
            EmulatorConfig(lmax=8, n_harmonics=2, var_order=1, tile_size=16,
                           precision_variant=variant, covariance_jitter=1e-4,
                           rho_grid=(0.5,))
        )
        emulator.fit(small_ensemble)
        out = emulator.emulate(n_realizations=1, rng=np.random.default_rng(0))
        report = consistency_report(small_ensemble, out, lmax=8)
        assert report.is_consistent(mean_tol_k=1.5, std_ratio_tol=0.3, ks_tol=0.2)
