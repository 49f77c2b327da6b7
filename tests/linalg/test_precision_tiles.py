"""Tests of precision descriptors, the factorisation flop count and the
tile-precision variants."""

import numpy as np
import pytest

from repro.linalg import cholesky_flops, tile_codes
from repro.linalg.policies import VARIANTS
from repro.linalg.precision import _PRECISIONS, Precision


class TestPrecision:
    def test_dtypes_and_sizes(self):
        assert Precision.DOUBLE.dtype == np.float64
        assert Precision.SINGLE.dtype == np.float32
        assert Precision.HALF.dtype == np.float16
        assert [p.bytes_per_element for p in _PRECISIONS] == [8, 4, 2]

    def test_epsilon_ordering(self):
        assert Precision.DOUBLE.epsilon < Precision.SINGLE.epsilon < Precision.HALF.epsilon

    @pytest.mark.parametrize("precision", _PRECISIONS)
    def test_storage_rounding_is_within_half_an_epsilon(self, precision):
        values = np.linspace(1.0, 2.0, 1001) + 1e-9
        stored = values.astype(precision.dtype).astype(np.float64)
        rel = np.abs(stored - values) / values
        assert np.max(rel) <= precision.epsilon / 2
        if precision is not Precision.DOUBLE:
            assert np.max(rel) > 0


class TestFlops:
    def test_cholesky_total(self):
        assert cholesky_flops(1000) == pytest.approx(1000 ** 3 / 3, rel=1e-2)


def _grid(variant: str, n_tiles: int) -> dict:
    """``{(i, j): Precision}`` of the lower tiles ``variant`` assigns."""
    codes = tile_codes(variant, n_tiles)
    return {(int(i), int(j)): _PRECISIONS[c] for i, j, c in zip(*np.tril_indices(n_tiles), codes)}


class TestVariants:
    def test_the_four_variants(self):
        assert VARIANTS == ("DP", "DP/SP", "DP/SP/HP", "DP/HP")

    def test_dp_variant_is_all_double(self):
        assert all(p is Precision.DOUBLE for p in _grid("DP", 6).values())

    def test_dp_hp_band_structure(self):
        grid = _grid("DP/HP", 6)
        assert grid[(3, 3)] is Precision.DOUBLE
        assert grid[(5, 0)] is Precision.HALF

    def test_dp_hp_keeps_only_the_diagonal_in_double(self):
        precisions = list(_grid("DP/HP", 8).values())
        assert precisions.count(Precision.DOUBLE) == 8
        assert precisions.count(Precision.HALF) == 8 * 9 // 2 - 8

    def test_dp_sp_keeps_only_the_diagonal_in_double(self):
        precisions = list(_grid("DP/SP", 8).values())
        assert precisions.count(Precision.DOUBLE) == 8
        assert precisions.count(Precision.SINGLE) == 8 * 9 // 2 - 8

    def test_dp_sp_hp_has_three_levels(self):
        precisions = list(_grid("DP/SP/HP", 40).values())
        assert precisions.count(Precision.DOUBLE) > 0
        assert precisions.count(Precision.SINGLE) > 0
        assert precisions.count(Precision.HALF) > 0.5 * len(precisions)

    @pytest.mark.parametrize("n_tiles, widest", [(1, 0), (19, 1), (20, 1), (21, 2), (40, 2), (41, 3)])
    def test_dp_sp_hp_single_band_is_the_nearest_5_percent(self, n_tiles, widest):
        """Off-diagonal distance ``d`` is single while ``d < 1 + 0.05 n_tiles``."""
        grid = _grid("DP/SP/HP", n_tiles)
        single = [i - j for (i, j), p in grid.items() if p is Precision.SINGLE]
        assert max(single, default=0) == widest
        assert all(p is Precision.HALF for (i, j), p in grid.items() if i - j > widest)

    def test_codes_are_row_major_uint8(self):
        codes = tile_codes("DP/SP", 3)  # (0,0) (1,0) (1,1) (2,0) (2,1) (2,2)
        assert codes.dtype == np.uint8 and codes.tolist() == [0, 1, 0, 1, 1, 0]
        assert tile_codes("DP", 0).shape == (0,)

    @pytest.mark.parametrize("spelling", ["dp/hp", "Dp/Hp", " DP/HP ", "dp / hp"])
    def test_names_match_in_any_case(self, spelling):
        assert np.array_equal(tile_codes(spelling, 7), tile_codes("DP/HP", 7))

    def test_unknown_variant_lists_the_four(self):
        with pytest.raises(ValueError) as excinfo:
            tile_codes("DP/QP", 4)
        message = str(excinfo.value)
        assert "'DP/QP'" in message and all(f"'{v}'" in message for v in VARIANTS)
        assert "see docs/api.md#cholesky-precision-variants" in message
