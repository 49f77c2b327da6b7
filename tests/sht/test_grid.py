"""Tests of the equiangular grid container."""

import numpy as np
import pytest

from repro.sht.grid import (
    Grid,
    extended_colatitude_length,
    resolution_to_bandlimit,
)


class TestGridConstruction:
    def test_for_bandlimit_supports_that_bandlimit(self):
        for lmax in (2, 8, 33):
            grid = Grid.for_bandlimit(lmax)
            assert grid.supports_bandlimit(lmax)
            assert grid.ntheta == lmax + 1
            assert grid.nphi == 2 * lmax - 1

    def test_era5_grid_matches_paper(self):
        grid = Grid.era5()
        assert grid.shape == (721, 1440)
        assert grid.supports_bandlimit(720)
        assert grid.resolution_deg == pytest.approx(0.25)

    def test_from_resolution(self):
        grid = Grid.from_resolution(1.0)
        assert grid.ntheta == 181
        assert grid.supports_bandlimit(180)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Grid(ntheta=1, nphi=4)
        with pytest.raises(ValueError):
            Grid(ntheta=4, nphi=0)


class TestGridCoordinates:
    def test_colatitudes_cover_poles(self):
        grid = Grid(ntheta=9, nphi=16)
        theta = grid.colatitudes
        assert theta[0] == 0.0
        assert theta[-1] == pytest.approx(np.pi)
        assert np.all(np.diff(theta) > 0)

    def test_latitudes_run_north_to_south(self):
        grid = Grid(ntheta=5, nphi=8)
        lat = grid.latitudes
        assert lat[0] == pytest.approx(90.0)
        assert lat[-1] == pytest.approx(-90.0)

    def test_longitudes_exclude_endpoint(self):
        grid = Grid(ntheta=5, nphi=8)
        lon = grid.longitudes
        assert lon[0] == 0.0
        assert lon[-1] < 2 * np.pi

    def test_mesh_shapes(self):
        grid = Grid(ntheta=5, nphi=8)
        theta, phi = grid.mesh()
        assert theta.shape == grid.shape
        assert phi.shape == grid.shape


class TestGridAreas:
    def test_cell_areas_sum_to_sphere(self):
        grid = Grid(ntheta=19, nphi=36)
        assert grid.cell_areas().sum() == pytest.approx(4 * np.pi, rel=1e-10)

    def test_area_weights_sum_to_one(self):
        grid = Grid(ntheta=9, nphi=12)
        assert grid.area_weights().sum() == pytest.approx(1.0)

    def test_polar_cells_smaller_than_equatorial(self):
        grid = Grid(ntheta=19, nphi=36)
        areas = grid.cell_areas()
        assert areas[0, 0] < areas[9, 0]


class TestResolutionHelpers:
    def test_resolution_bandlimit_roundtrip(self):
        assert resolution_to_bandlimit(0.25) == 720

    def test_paper_ultra_high_resolution(self):
        """0.034 degrees (~3.5 km) corresponds to a band-limit near 5,219."""
        lmax = resolution_to_bandlimit(0.034)
        assert 5000 < lmax < 5500

    def test_extended_length(self):
        assert extended_colatitude_length(721) == 1440
        with pytest.raises(ValueError):
            extended_colatitude_length(1)

    def test_resolution_km_roughly_110km_per_degree(self):
        grid = Grid.from_resolution(1.0)
        assert 100.0 < grid.resolution_km < 120.0

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            resolution_to_bandlimit(0.0)
