"""Tests of precision descriptors, flop counts and policies."""

import numpy as np
import pytest

from repro.linalg import (
    PRECISIONS,
    Precision,
    adaptive_policy,
    band_policy,
    cholesky_flops,
    gemm_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
    variant_policy,
)
from repro.linalg.flops import cholesky_tile_counts
from repro.linalg.precision import parse_precision


class TestPrecision:
    def test_dtypes_and_sizes(self):
        assert Precision.DOUBLE.dtype == np.float64
        assert Precision.SINGLE.dtype == np.float32
        assert Precision.HALF.dtype == np.float16
        assert [p.bytes_per_element for p in PRECISIONS] == [8, 4, 2]

    def test_epsilon_ordering(self):
        assert Precision.DOUBLE.epsilon < Precision.SINGLE.epsilon < Precision.HALF.epsilon

    def test_short_names(self):
        assert Precision.DOUBLE.short_name == "DP"
        assert Precision.HALF.short_name == "HP"

    def test_convert_loses_precision(self):
        values = np.array([1.0 + 1e-5, 2.0 + 1e-9])
        half = Precision.HALF.convert_via(values)
        assert half.dtype == np.float64
        assert abs(half[0] - values[0]) > 0
        assert np.max(np.abs(half - values)) < 1e-2

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("dp", Precision.DOUBLE),
            ("FP32", Precision.SINGLE),
            ("half", Precision.HALF),
            ("s", Precision.SINGLE),
            (Precision.HALF, Precision.HALF),
        ],
    )
    def test_parse(self, name, expected):
        assert parse_precision(name) is expected

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            parse_precision("quad")


class TestFlops:
    def test_asymptotic_ratios(self):
        nb = 256
        assert gemm_flops(nb) == pytest.approx(2 * nb ** 3)
        assert trsm_flops(nb) == pytest.approx(nb ** 3)
        assert syrk_flops(nb) == pytest.approx(nb ** 3, rel=1e-2)
        assert potrf_flops(nb) == pytest.approx(nb ** 3 / 3, rel=1e-2)

    def test_cholesky_total(self):
        assert cholesky_flops(1000) == pytest.approx(1000 ** 3 / 3, rel=1e-2)

    def test_tile_counts(self):
        counts = cholesky_tile_counts(4)
        assert counts == {"POTRF": 4, "TRSM": 6, "SYRK": 6, "GEMM": 4}

    def test_tile_counts_match_total_flops(self):
        """Summing per-kernel flops over the tile counts approximates n^3/3."""
        nb, nt = 64, 8
        counts = cholesky_tile_counts(nt)
        total = (
            counts["POTRF"] * potrf_flops(nb)
            + counts["TRSM"] * trsm_flops(nb)
            + counts["SYRK"] * syrk_flops(nb)
            + counts["GEMM"] * gemm_flops(nb)
        )
        assert total == pytest.approx(cholesky_flops(nb * nt), rel=0.05)


class TestPolicies:
    def test_dp_variant_is_all_double(self):
        policy = variant_policy("DP")
        assert all(p is Precision.DOUBLE for p in policy.precision_map(6).values())

    def test_dp_hp_band_structure(self):
        policy = variant_policy("DP/HP")
        pm = policy.precision_map(6)
        assert pm[(3, 3)] is Precision.DOUBLE
        assert pm[(5, 0)] is Precision.HALF

    def test_dp_hp_keeps_only_the_diagonal_in_double(self):
        precisions = list(variant_policy("DP/HP").precision_map(8).values())
        assert precisions.count(Precision.DOUBLE) == 8
        assert precisions.count(Precision.HALF) == 8 * 9 // 2 - 8

    def test_dp_sp_hp_has_three_levels(self):
        policy = variant_policy("DP/SP/HP")
        fractions = policy.fractions(40)
        assert fractions[Precision.DOUBLE] > 0
        assert fractions[Precision.SINGLE] > 0
        assert fractions[Precision.HALF] > 0.5

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            variant_policy("DP/QP")

    def test_band_policy_fractional_width(self):
        policy = band_policy("custom", ((0.5, Precision.SINGLE),), Precision.HALF)
        pm = policy.precision_map(10)
        assert pm[(2, 0)] is Precision.SINGLE
        assert pm[(9, 0)] is Precision.HALF

    def test_adaptive_policy_tracks_magnitude(self):
        n = 32
        idx = np.arange(n)
        matrix = np.exp(-np.abs(np.subtract.outer(idx, idx)) / 2.0) + np.eye(n)
        policy = adaptive_policy(matrix, tile_size=8, sp_threshold=0.5, hp_threshold=1e-3)
        pm = policy.precision_map(4)
        assert pm[(0, 0)] is Precision.DOUBLE
        assert pm[(3, 0)] in (Precision.SINGLE, Precision.HALF)

    def test_fractions_sum_to_one(self):
        for variant in ("DP", "DP/SP", "DP/SP/HP", "DP/HP"):
            fractions = variant_policy(variant).fractions(12)
            assert sum(fractions.values()) == pytest.approx(1.0)
