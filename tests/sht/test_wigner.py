"""Tests of the Wigner small-d matrices at pi/2."""

import numpy as np
import pytest

from reference_transform import wigner_d_explicit  # tests/sht is on sys.path (rootdir layout)
from repro.sht.wigner import wigner_d_from_pi2, wigner_d_pi2, wigner_d_pi2_all


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
        recursive = wigner_d_pi2(ell)
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
        d = wigner_d_pi2(ell)
        assert np.allclose(d @ d.T, np.eye(2 * ell + 1), atol=1e-9)

    def test_symmetry_relations(self):
        """d_{m',m} = (-1)^{m'-m} d_{m,m'} and d_{m',m} = d_{-m,-m'}."""
        ell = 7
        d = wigner_d_pi2(ell)
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
