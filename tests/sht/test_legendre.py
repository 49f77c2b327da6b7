"""Tests of the normalised associated Legendre functions."""

import numpy as np
import pytest

from direct_transform import (  # tests/sht is on sys.path (rootdir layout)
    legendre_normalized,
    ylm_matrix_theta0,
    ylm_theta0,
)


class TestLegendreNormalized:
    def test_l0_is_constant(self):
        x = np.linspace(-1, 1, 7)
        p = legendre_normalized(0, x)
        assert np.allclose(p[0, 0], 1.0 / np.sqrt(4.0 * np.pi))

    def test_known_l1_values(self):
        x = np.array([0.0, 0.5, -0.3])
        p = legendre_normalized(1, x)
        # Pbar_{1,0}(x) = sqrt(3/4pi) x
        assert np.allclose(p[1, 0], np.sqrt(3.0 / (4 * np.pi)) * x)
        # Pbar_{1,1}(x) = -sqrt(3/8pi) sqrt(1-x^2)
        assert np.allclose(p[1, 1], -np.sqrt(3.0 / (8 * np.pi)) * np.sqrt(1 - x ** 2))

    def test_orthonormality_over_sphere(self):
        """Columns are orthonormal under the sin(theta) measure."""
        lmax = 6
        n = 400
        theta = (np.arange(n) + 0.5) * np.pi / n
        x = np.cos(theta)
        w = np.sin(theta) * np.pi / n * 2 * np.pi
        p = legendre_normalized(lmax, x)
        for m in range(lmax + 1):
            for l1 in range(m, lmax + 1):
                for l2 in range(m, lmax + 1):
                    inner = np.sum(p[l1, m] * p[l2, m] * w)
                    expected = 1.0 if l1 == l2 else 0.0
                    assert inner == pytest.approx(expected, abs=2e-3)

    def test_zero_above_diagonal(self):
        p = legendre_normalized(4, np.array([0.3]))
        for ell in range(5):
            for m in range(ell + 1, 5):
                assert p[ell, m] == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            legendre_normalized(-1, np.array([0.0]))
        with pytest.raises(ValueError):
            legendre_normalized(2, np.array([1.5]))


class TestYlmTheta0:
    def test_negative_order_symmetry(self):
        theta = np.linspace(0.1, np.pi - 0.1, 5)
        lmax = 5
        y = ylm_theta0(lmax, theta)
        for ell in range(lmax + 1):
            for m in range(1, ell + 1):
                assert np.allclose(y[ell, lmax - m], (-1) ** m * y[ell, lmax + m])

    def test_matches_scipy_sph_harm(self):
        scipy_special = pytest.importorskip("scipy.special")
        theta = np.array([0.4, 1.1, 2.3])
        lmax = 5
        y = ylm_theta0(lmax, theta)
        for ell in range(lmax + 1):
            for m in range(-ell, ell + 1):
                if hasattr(scipy_special, "sph_harm_y"):
                    ref = scipy_special.sph_harm_y(ell, m, theta, 0.0)
                else:  # pragma: no cover - older scipy
                    ref = scipy_special.sph_harm(m, ell, 0.0, theta)
                assert np.allclose(y[ell, lmax + m], ref.real, atol=1e-12)

    def test_flat_matrix_layout(self):
        theta = np.array([0.7, 1.9])
        lmax = 3
        flat = ylm_matrix_theta0(lmax, theta)
        full = ylm_theta0(lmax, theta)
        assert flat.shape == ((lmax + 1) ** 2, theta.size)
        for ell in range(lmax + 1):
            for m in range(-ell, ell + 1):
                assert np.allclose(flat[ell * ell + ell + m], full[ell, lmax + m])
