"""Tests of the Wigner small-d matrices at pi/2."""

import tracemalloc

import numpy as np
import pytest

from reference_transform import (  # tests/sht is on sys.path (rootdir layout)
    wigner_d_explicit,
    wigner_d_from_pi2,
    wigner_d_pi2_all,
)
from repro.sht.wigner import wigner_d_pi2_quadrants


class TestExplicitFormula:
    def test_degree_zero(self):
        assert wigner_d_explicit(0, 0.3).shape == (1, 1)
        assert wigner_d_explicit(0, 0.3)[0, 0] == pytest.approx(1.0)

    def test_degree_one_known_values(self):
        beta = 0.7
        d = wigner_d_explicit(1, beta)
        # Varshalovich conventions.
        assert d[1, 1] == pytest.approx(np.cos(beta))          # d_{0,0}
        assert d[2, 1] == pytest.approx(-np.sin(beta) / np.sqrt(2))  # d_{1,0}
        assert d[2, 2] == pytest.approx((1 + np.cos(beta)) / 2)      # d_{1,1}
        assert d[0, 2] == pytest.approx((1 - np.cos(beta)) / 2)      # d_{-1,1}

    def test_orthogonality(self):
        for ell in (1, 2, 4):
            d = wigner_d_explicit(ell, 1.1)
            assert np.allclose(d @ d.T, np.eye(2 * ell + 1), atol=1e-12)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            wigner_d_explicit(-1, 0.5)


class TestRecursionAtPiOver2:
    @pytest.mark.parametrize("ell", [0, 1, 2, 3, 5, 8, 12, 16])
    def test_matches_explicit(self, ell):
        recursive = wigner_d_pi2_all(ell + 1)[ell]
        explicit = wigner_d_explicit(ell, np.pi / 2)
        assert np.max(np.abs(recursive - explicit)) < 1e-10

    def test_all_returns_every_degree(self):
        lmax = 6
        deltas = wigner_d_pi2_all(lmax)
        assert len(deltas) == lmax
        for ell, d in enumerate(deltas):
            assert d.shape == (2 * ell + 1, 2 * ell + 1)

    def test_orthogonality_large_degree(self):
        ell = 20
        d = wigner_d_pi2_all(ell + 1)[ell]
        assert np.allclose(d @ d.T, np.eye(2 * ell + 1), atol=1e-9)

    def test_symmetry_relations(self):
        """d_{m',m} = (-1)^{m'-m} d_{m,m'} and d_{m',m} = d_{-m,-m'}."""
        ell = 7
        d = wigner_d_pi2_all(ell + 1)[ell]
        for m1 in range(-ell, ell + 1):
            for m2 in range(-ell, ell + 1):
                a = d[m1 + ell, m2 + ell]
                assert a == pytest.approx(((-1.0) ** (m1 - m2)) * d[m2 + ell, m1 + ell], abs=1e-10)
                assert a == pytest.approx(d[-m2 + ell, -m1 + ell], abs=1e-10)

    def test_empty_when_lmax_zero(self):
        assert wigner_d_pi2_all(0) == []


class TestFourierRepresentation:
    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.2, np.pi / 2, 2.9])
    def test_reconstructs_general_angle(self, beta):
        ell = 5
        rec = wigner_d_from_pi2(ell, beta)
        ref = wigner_d_explicit(ell, beta)
        assert np.max(np.abs(rec - ref)) < 1e-10


class TestQuadrants:
    """The plan's ``m', m >= 0`` quadrants are the full recursion's corner,
    bit for bit, and the build never holds a full ``(2L+1)^2`` matrix."""

    @pytest.mark.parametrize("lmax", [1, 2, 3, 8, 33, 64, 128])
    def test_bit_identical_to_the_full_recursion(self, lmax):
        quadrants = wigner_d_pi2_quadrants(lmax)
        full = wigner_d_pi2_all(lmax)
        assert len(quadrants) == lmax
        for ell, (quadrant, delta) in enumerate(zip(quadrants, full)):
            corner = delta[ell:, ell:]
            assert quadrant.shape == (ell + 1, ell + 1)
            assert np.array_equal(quadrant, corner)
            assert np.array_equal(np.signbit(quadrant), np.signbit(corner))

    @pytest.mark.parametrize("ell", [0, 1, 2, 5, 9])
    def test_matches_explicit(self, ell):
        quadrant = wigner_d_pi2_quadrants(ell + 1)[ell]
        explicit = wigner_d_explicit(ell, np.pi / 2)[ell:, ell:]
        assert np.max(np.abs(quadrant - explicit)) < 1e-12

    def test_empty_when_lmax_zero(self):
        assert wigner_d_pi2_quadrants(0) == []

    def test_traced_peak_is_the_quadrants_plus_a_few_degrees(self):
        """At L = 128 the quadrants are 5.7 MB; the build's temporaries are
        about four of the last degree's quadrants.  One ``(2L+1)^2``
        temporary (0.53 MB) kept beside them breaks the slack of six."""
        lmax = 128
        wigner_d_pi2_quadrants(4)  # imports and scipy's first-call set-up
        tracemalloc.start()
        try:
            quadrants = wigner_d_pi2_quadrants(lmax)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(q.nbytes for q in quadrants)
        assert returned == 8 * lmax * (lmax + 1) * (2 * lmax + 1) // 6
        assert peak <= returned + 6 * 8 * lmax * lmax
