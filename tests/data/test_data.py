"""Tests of the climate data substrate: forcing, land mask, generator, ensemble."""

import hashlib

import numpy as np
import pytest

from repro.data import ClimateEnsemble, Era5LikeConfig, Era5LikeGenerator
from repro.data.landsea import land_fraction
from repro.scenarios import ScenarioSpec, resolve_scenario
from repro.scenarios.components import historical_pathway
from repro.sht.grid import Grid

ORIGINAL_SCENARIOS = ["historical", "constant", "linear-ramp", "high-emissions", "stabilisation"]


def forcing(name: str, n_years: int) -> np.ndarray:
    return resolve_scenario(name).annual_forcing(n_years)


class TestForcing:
    def test_historical_trend_and_volcanoes(self):
        rf = forcing("historical", 83)
        assert rf.shape == (83,)
        assert rf[-1] > rf[0]
        # Volcanic years dip below the smooth trend.
        smooth = ScenarioSpec("smooth", historical_pathway(volcanoes=())).annual_forcing(83)
        assert np.min(rf - smooth) < -1.0
        assert np.max(rf - smooth) <= 1e-12

    @pytest.mark.parametrize("scenario", ORIGINAL_SCENARIOS)
    def test_scenarios_have_right_length(self, scenario):
        rf = forcing(scenario, 50)
        assert rf.shape == (50,)
        assert np.all(np.isfinite(rf))

    def test_high_emissions_exceeds_stabilisation(self):
        high = forcing("high-emissions", 80)
        stab = forcing("stabilisation", 80)
        assert high[-1] > stab[-1]

    def test_unknown_scenario_error_lists_available(self):
        """An unknown name must name the alternatives, not just reject."""
        with pytest.raises(ValueError) as excinfo:
            forcing("rcp-bogus", 10)
        message = str(excinfo.value)
        for name in ("historical", "stabilisation", "ssp-low", "ssp-high"):
            assert name in message

    def test_registered_ssp_names_resolve(self):
        for name in ("ssp-low", "ssp-medium", "ssp-high", "overshoot"):
            rf = forcing(name, 60)
            assert rf.shape == (60,)
            assert np.all(np.isfinite(rf))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            forcing("historical", 0)

    @pytest.mark.parametrize("growth, n_years, digest", [
        (0.035, 83, "d87914955d58ed96"),
        (1.0, 3, "4146e962c1249dd4"),
        (0.25, 40, "e792dbc64888a8bf"),
    ])
    def test_generator_forcing_is_pinned(self, growth, n_years, digest):
        """The generator's historical forcing, per ``forcing_growth``, keeps
        the bits it had when the data layer built it itself (the sha256
        prefix of its float64 bytes), so ensemble digests do not move."""
        sims = Era5LikeGenerator(
            Era5LikeConfig(lmax=4, n_years=n_years, steps_per_year=2,
                           n_ensemble=1, forcing_growth=growth),
            seed=5,
        ).generate()
        assert hashlib.sha256(sims.forcing_annual.tobytes()).hexdigest()[:16] == digest
        np.testing.assert_array_equal(
            sims.forcing_annual,
            ScenarioSpec("historical", historical_pathway(growth=growth))
            .annual_forcing(n_years),
        )


class TestLandFraction:
    def test_range_and_shape(self):
        grid = Grid(ntheta=21, nphi=40)
        land = land_fraction(grid)
        assert land.shape == grid.shape
        assert np.all(land >= 0) and np.all(land <= 1)

    def test_has_both_land_and_ocean(self):
        grid = Grid(ntheta=31, nphi=60)
        land = land_fraction(grid)
        assert land.max() > 0.8
        assert land.min() < 0.2

    def test_longitudinal_variation(self):
        """The mask must vary along longitude (the anisotropy driver)."""
        grid = Grid(ntheta=31, nphi=60)
        land = land_fraction(grid)
        mid = land[15, :]
        assert mid.std() > 0.05


class TestEra5LikeGenerator:
    def test_generation_shapes_and_units(self, small_ensemble):
        assert small_ensemble.data.shape[0] == 2
        assert small_ensemble.n_times == 72
        assert 180.0 < small_ensemble.data.mean() < 330.0

    def test_poles_colder_than_tropics(self, small_ensemble):
        climatology = small_ensemble.time_mean()
        equator = climatology[climatology.shape[0] // 2].mean()
        pole = climatology[0].mean()
        assert equator > pole + 20.0

    def test_warming_trend_present(self):
        config = Era5LikeConfig(lmax=6, n_years=10, steps_per_year=12, n_ensemble=1,
                                seasonal_amplitude_k=0.0, land_seasonal_boost_k=0.0,
                                noise_scale_k=0.05, land_noise_boost_k=0.0,
                                polar_noise_boost_k=0.0, nugget_std=0.0)
        ens = Era5LikeGenerator(config, seed=0).generate()
        gm = ens.global_mean_series()[0]
        yearly = gm.reshape(10, 12).mean(axis=1)
        assert yearly[-1] > yearly[0]

    def test_seasonal_cycle_antisymmetric_between_hemispheres(self):
        config = Era5LikeConfig(lmax=6, n_years=2, steps_per_year=24, n_ensemble=1,
                                noise_scale_k=0.01, land_noise_boost_k=0.0,
                                polar_noise_boost_k=0.0, nugget_std=0.0)
        gen = Era5LikeGenerator(config, seed=0)
        ens = gen.generate()
        data = ens.data[0]
        north = data[:, 2, :].mean(axis=1)
        south = data[:, -3, :].mean(axis=1)
        corr = np.corrcoef(north - north.mean(), south - south.mean())[0, 1]
        assert corr < -0.5

    def test_reproducibility(self):
        config = Era5LikeConfig(lmax=6, n_years=1, steps_per_year=12, n_ensemble=1)
        a = Era5LikeGenerator(config, seed=9).generate()
        b = Era5LikeGenerator(config, seed=9).generate()
        c = Era5LikeGenerator(config, seed=10).generate()
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_ground_truth_fields_have_grid_shape(self, small_ensemble):
        gen = Era5LikeGenerator(Era5LikeConfig(lmax=8), seed=0)
        for field in (gen.climatology(), gen.sensitivity(), gen.noise_scale(), gen.seasonal_amplitude()):
            assert field.shape == gen.grid.shape


class TestClimateEnsemble:
    def test_shape_validation(self, small_grid):
        with pytest.raises(ValueError):
            ClimateEnsemble(
                data=np.zeros((2, 4, 3, 3)),
                grid=small_grid,
                forcing_annual=np.zeros(1),
                steps_per_year=4,
            )

    def test_forcing_coverage_validation(self, small_grid):
        with pytest.raises(ValueError):
            ClimateEnsemble(
                data=np.zeros((1, 24) + small_grid.shape),
                grid=small_grid,
                forcing_annual=np.zeros(1),
                steps_per_year=12,
            )

    def test_views_and_statistics(self, small_ensemble):
        assert small_ensemble.member(0).shape == (72,) + small_ensemble.grid.shape
        assert small_ensemble.ensemble_mean().shape == (72,) + small_ensemble.grid.shape
        assert small_ensemble.global_mean_series().shape == (2, 72)
        assert small_ensemble.n_years == pytest.approx(3.0)
        sub = small_ensemble.subset_time(0, 24)
        assert sub.n_times == 24
        with pytest.raises(ValueError):
            small_ensemble.subset_time(10, 5)

    def test_forcing_per_step(self, small_ensemble):
        per_step = small_ensemble.forcing_per_step()
        assert per_step.shape == (72,)
        assert np.all(per_step[:24] == small_ensemble.forcing_annual[0])

    def test_storage_bytes(self, small_ensemble):
        assert small_ensemble.storage_bytes(np.float32) == small_ensemble.n_data_points * 4
