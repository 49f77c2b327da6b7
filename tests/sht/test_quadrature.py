"""Tests of the I(q) integrals and colatitude quadrature weights."""

import numpy as np
import pytest
from scipy.integrate import quad

from reference_transform import integral_matrix  # tests/sht is on sys.path (rootdir layout)
from repro.sht.quadrature import (
    colatitude_weights,
    _exponential_sine_integral,
    extended_colatitude_weights,
)


class TestExponentialSineIntegral:
    @pytest.mark.parametrize("q", range(-7, 8))
    def test_matches_numerical_integration(self, q):
        real_part = quad(lambda t: np.cos(q * t) * np.sin(t), 0, np.pi)[0]
        imag_part = quad(lambda t: np.sin(q * t) * np.sin(t), 0, np.pi)[0]
        value = _exponential_sine_integral(q)
        assert value.real == pytest.approx(real_part, abs=1e-12)
        assert value.imag == pytest.approx(imag_part, abs=1e-12)

    def test_closed_form_cases(self):
        assert _exponential_sine_integral(0) == pytest.approx(2.0)
        assert _exponential_sine_integral(1) == pytest.approx(1j * np.pi / 2)
        assert _exponential_sine_integral(-1) == pytest.approx(-1j * np.pi / 2)
        assert _exponential_sine_integral(2) == pytest.approx(-2.0 / 3.0)
        assert _exponential_sine_integral(3) == pytest.approx(0.0)

    def test_vectorised(self):
        q = np.array([0, 1, 2, 5])
        values = _exponential_sine_integral(q)
        assert values.shape == (4,)
        assert values[3] == pytest.approx(0.0)


class TestIntegralMatrix:
    def test_shape_and_symmetry(self):
        lmax = 5
        mat = integral_matrix(lmax)
        assert mat.shape == (2 * lmax - 1, 2 * lmax - 1)
        # I(m' + m'') is symmetric under swapping m' and m''.
        assert np.allclose(mat, mat.T)

    def test_entries(self):
        mat = integral_matrix(3)
        centre = 2  # index of order 0
        assert mat[centre, centre] == pytest.approx(2.0)
        assert mat[centre, centre + 1] == pytest.approx(1j * np.pi / 2)

    def test_invalid_lmax(self):
        with pytest.raises(ValueError):
            integral_matrix(0)


class TestColatitudeWeights:
    def test_extended_weights_integrate_exponentials(self):
        ntheta = 12
        next_ = 2 * ntheta - 2
        theta = 2 * np.pi * np.arange(next_) / next_
        w = extended_colatitude_weights(ntheta)
        for p in range(-(ntheta - 2), ntheta - 1):
            value = np.sum(w * np.exp(1j * p * theta))
            assert value == pytest.approx(complex(_exponential_sine_integral(p)), abs=1e-12)

    @pytest.mark.parametrize("parity", [1, -1])
    def test_folded_weights_respect_parity(self, parity):
        ntheta = 14
        theta = np.pi * np.arange(ntheta) / (ntheta - 1)
        w = colatitude_weights(ntheta, parity)
        for p in range(0, ntheta - 1):
            f = np.exp(1j * p * theta) + parity * np.exp(-1j * p * theta)
            expected = _exponential_sine_integral(p) + parity * _exponential_sine_integral(-p)
            assert np.sum(w * f) == pytest.approx(complex(expected), abs=1e-11)

    def test_even_weights_sum_to_sphere_measure(self):
        """Integrating f = 1 must give 2 (the integral of sin(theta))."""
        w = colatitude_weights(16, parity=1)
        assert np.sum(w) == pytest.approx(2.0)

    def test_invalid_parity(self):
        with pytest.raises(ValueError):
            colatitude_weights(8, parity=0)
