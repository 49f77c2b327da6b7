"""Tests of the paper's archive arithmetic: raw archives against emulator parameters."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.paper_model.archive import (
    CMIP6_ARCHIVE,
    StorageScenario,
    archive_bytes,
    emulator_parameter_bytes,
    savings_report,
)
from repro.sht.grid import Grid


@pytest.fixture(scope="module")
def era5_hourly_scenario():
    """The paper's hourly training set: ERA5 grid, 35 years, hourly."""
    return StorageScenario(
        name="ERA5 hourly 1988-2022",
        grid=Grid.era5(),
        n_years=35,
        steps_per_year=8760,
        n_ensemble=1,
    )


class TestArchiveBytes:
    def test_paper_hourly_data_point_count(self, era5_hourly_scenario):
        """The paper quotes ~318 billion hourly training points."""
        assert era5_hourly_scenario.n_values == pytest.approx(318e9, rel=0.02)

    def test_paper_daily_data_point_count(self):
        daily = StorageScenario(
            name="ERA5 daily 1940-2022", grid=Grid.era5(), n_years=83, steps_per_year=365
        )
        assert daily.n_values == pytest.approx(31e9, rel=0.05)

    def test_hourly_single_variable_archive_is_terabyte_scale(self, era5_hourly_scenario):
        assert 1.0e12 < archive_bytes(era5_hourly_scenario) < 2.0e12

    def test_cmip_style_archive_exceeds_a_petabyte(self):
        """Many variables and members push the archive into the petabytes."""
        scenario = StorageScenario(
            name="CMIP-style archive",
            grid=Grid.era5(),
            n_years=35,
            steps_per_year=8760,
            n_ensemble=10,
            n_variables=100,
        )
        assert archive_bytes(scenario) > 1.0e15

    def test_scaling_with_members_and_variables(self, era5_hourly_scenario):
        double = StorageScenario(
            name="x2", grid=era5_hourly_scenario.grid, n_years=35,
            steps_per_year=8760, n_ensemble=2,
        )
        assert archive_bytes(double) == pytest.approx(2 * archive_bytes(era5_hourly_scenario))


class TestEmulatorFootprint:
    def test_parameters_much_smaller_than_ensemble_archive(self):
        """The emulator replaces storing many ensemble members."""
        ensemble = StorageScenario(
            name="10-member hourly ensemble", grid=Grid.era5(),
            n_years=35, steps_per_year=8760, n_ensemble=10,
        )
        emulator = emulator_parameter_bytes(Grid.era5(), lmax=720)
        assert emulator < archive_bytes(ensemble) / 5

    def test_covariance_dominates_at_high_bandlimit(self):
        small = emulator_parameter_bytes(Grid.era5(), lmax=64)
        large = emulator_parameter_bytes(Grid.era5(), lmax=720)
        assert large > 10 * small

    def test_diagonal_covariance_option(self):
        full = emulator_parameter_bytes(Grid.era5(), lmax=256, store_full_covariance=True)
        diag = emulator_parameter_bytes(Grid.era5(), lmax=256, store_full_covariance=False)
        assert diag < full


class TestSavingsReport:
    def test_report_fields(self):
        scenario = StorageScenario(
            name="CMIP-style archive", grid=Grid.era5(), n_years=35,
            steps_per_year=8760, n_ensemble=10, n_variables=100,
        )
        report = savings_report(scenario, lmax=720)
        assert report["compression_factor"] > 100.0
        assert report["saved_petabytes"] > 0.5
        assert report["annual_savings_usd"] > 0
        assert report["raw_bytes"] == archive_bytes(scenario)

    def test_cmip_context_figures(self):
        assert CMIP6_ARCHIVE["cmip6_total"] == pytest.approx(28e15)
        assert CMIP6_ARCHIVE["cmip5_total"] == pytest.approx(2e15)

    def test_large_km_scale_ensemble_saves_petabytes(self):
        """A 100-member kilometre-scale hourly ensemble is petabyte-scale;
        the emulator with a diagonal innovation covariance replaces it with
        gigabytes of parameters."""
        scenario = StorageScenario(
            name="100-member km-scale ensemble",
            grid=Grid.from_resolution(0.034),
            n_years=10,
            steps_per_year=8760,
            n_ensemble=100,
        )
        report = savings_report(scenario, lmax=5219, store_full_covariance=False)
        assert report["raw_petabytes"] > 1.5
        assert report["saved_petabytes"] > 1.0
        assert report["compression_factor"] > 1000.0

    def test_full_covariance_is_prohibitive_at_km_scale(self):
        """Storing the dense L^2 x L^2 factor at L=5219 costs petabytes,
        which is why the diagonal option exists for the storage story."""
        full = emulator_parameter_bytes(Grid.from_resolution(0.034), lmax=5219)
        diagonal = emulator_parameter_bytes(
            Grid.from_resolution(0.034), lmax=5219, store_full_covariance=False
        )
        assert full > 1.0e15
        assert diagonal < 1.0e12



@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 50), st.integers(1, 20), st.integers(1, 4))
def test_archive_bytes_monotone(years, steps, members):
    grid = Grid(ntheta=11, nphi=20)
    small = StorageScenario("s", grid, years, steps, members)
    bigger = StorageScenario("b", grid, years + 1, steps, members)
    assert archive_bytes(bigger) > archive_bytes(small)
