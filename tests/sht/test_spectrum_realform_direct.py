"""Tests of the angular power spectrum, the real packing and the direct SHT."""

import numpy as np
import pytest

from direct_transform import (  # tests/sht is on sys.path (rootdir layout)
    direct_forward,
    direct_inverse,
    synthesis_matrix,
)
from repro.sht import Grid, SHTPlan, spectrum_from_grid
from real_packing import real_from_complex  # tests/ is on sys.path (rootdir layout)
from repro.sht.realform import complex_from_real
from repro.sht.spectrum import angular_power_spectrum, red_spectrum, spectral_distance
from repro.sht.transform import coeff_index


class TestAngularPowerSpectrum:
    def test_single_degree_power(self):
        lmax = 4
        coeffs = np.zeros(lmax * lmax, dtype=complex)
        coeffs[coeff_index(2, 0)] = 3.0
        coeffs[coeff_index(2, 1)] = 4.0
        spec = angular_power_spectrum(coeffs)
        assert spec.shape == (lmax,)
        assert spec[2] == pytest.approx((9.0 + 16.0) / 5.0)
        assert spec[0] == 0.0 and spec[3] == 0.0

    def test_batched(self, small_plan, rng):
        coeffs = small_plan.random_coefficients(rng, shape=(5,))
        spec = angular_power_spectrum(coeffs)
        assert spec.shape == (5, small_plan.lmax)
        assert np.all(spec >= 0)

    def test_spectrum_from_grid_matches_coefficients(self, small_plan, rng):
        coeffs = small_plan.random_coefficients(rng)
        field = small_plan.inverse(coeffs)
        from_grid = spectrum_from_grid(field, small_plan.lmax, small_plan.grid)
        direct = angular_power_spectrum(coeffs)
        assert np.allclose(from_grid, direct, atol=1e-12)

    def test_red_spectrum_decays(self):
        spec = red_spectrum(20, slope=-2.0)
        assert spec[0] > spec[5] > spec[19] > 0

    def test_spectral_distance_zero_for_identical(self):
        spec = red_spectrum(10)
        assert spectral_distance(spec, spec) == pytest.approx(0.0)
        assert spectral_distance(spec, 10 * spec) == pytest.approx(1.0, abs=1e-6)


class TestRealForm:
    def test_roundtrip(self, small_plan, rng):
        coeffs = small_plan.random_coefficients(rng)
        packed = real_from_complex(coeffs)
        assert packed.dtype == np.float64
        unpacked = complex_from_real(packed)
        assert np.max(np.abs(unpacked - coeffs)) < 1e-12

    def test_norm_preserved(self, small_plan, rng):
        coeffs = small_plan.random_coefficients(rng, shape=(10,))
        packed = real_from_complex(coeffs)
        assert np.allclose(
            np.linalg.norm(packed, axis=-1), np.linalg.norm(coeffs, axis=-1)
        )

    def test_unpacked_fields_are_real(self, small_plan, rng):
        packed = rng.standard_normal((3, small_plan.n_coeffs))
        fields = small_plan.inverse(complex_from_real(packed), real=False)
        assert np.max(np.abs(fields.imag)) < 1e-10


class TestDirectTransform:
    def test_synthesis_matrix_shape(self):
        grid = Grid.for_bandlimit(4)
        mat = synthesis_matrix(4, grid)
        assert mat.shape == (grid.npoints, 16)

    def test_direct_roundtrip_lstsq(self, rng):
        lmax = 5
        grid = Grid.for_bandlimit(lmax)
        plan = SHTPlan(lmax=lmax, grid=grid)
        coeffs = plan.random_coefficients(rng)
        field = direct_inverse(coeffs, grid)
        recovered = direct_forward(field, lmax, grid, method="lstsq")
        assert np.max(np.abs(recovered - coeffs)) < 1e-9

    def test_quadrature_requires_enough_longitudes(self):
        grid = Grid(ntheta=20, nphi=5)
        with pytest.raises(ValueError):
            direct_forward(np.zeros(grid.shape), 8, grid, method="quadrature")

    def test_unknown_method_rejected(self, small_grid):
        with pytest.raises(ValueError):
            direct_forward(np.zeros(small_grid.shape), 4, small_grid, method="bogus")

    def test_shape_mismatch_rejected(self, small_grid):
        with pytest.raises(ValueError):
            direct_forward(np.zeros((3, 3)), 2, small_grid)
