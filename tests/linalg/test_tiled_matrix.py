"""Tests of the tiled symmetric matrix container."""

import numpy as np
import pytest

from repro.linalg import Precision, TiledSymmetricMatrix, variant_policy


class TestConstruction:
    def test_from_dense_roundtrip_dp(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, tile_size=16, policy="DP")
        assert tiled.n_tiles == 4
        assert np.allclose(tiled.to_dense(), spd_matrix)

    def test_uneven_tiling(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, tile_size=24, policy="DP")
        assert tiled.n_tiles == 3
        assert tiled.tile_rows(2) == 16
        assert np.allclose(tiled.to_dense(), spd_matrix)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            TiledSymmetricMatrix.from_dense(np.zeros((4, 6)), tile_size=2)

    def test_rejects_bad_tile_size(self, spd_matrix):
        with pytest.raises(ValueError):
            TiledSymmetricMatrix.from_dense(spd_matrix, tile_size=0)

    def test_only_lower_triangle_stored(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, tile_size=16)
        with pytest.raises(KeyError):
            tiled.tile(0, 1)
        assert tiled.tile(1, 0).shape == (16, 16)


class TestPrecisionAccounting:
    def test_mixed_precision_reduces_storage(self, spd_matrix):
        dp = TiledSymmetricMatrix.from_dense(spd_matrix, 8, "DP")
        hp = TiledSymmetricMatrix.from_dense(spd_matrix, 8, "DP/HP")
        assert hp.storage_bytes() < dp.storage_bytes()
        assert hp.compression_ratio() > dp.compression_ratio() == pytest.approx(1.0)

    def test_bytes_by_precision(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 8, "DP/SP")
        by_prec = tiled.bytes_by_precision()
        assert Precision.DOUBLE in by_prec
        assert Precision.SINGLE in by_prec
        assert sum(by_prec.values()) == tiled.storage_bytes()

    def test_precision_counts(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 8, "DP/HP")
        counts = tiled.precision_counts()
        n_tiles = tiled.n_tiles
        assert counts["DP"] == n_tiles  # the diagonal band stays double
        assert counts["HP"] == n_tiles * (n_tiles + 1) // 2 - counts["DP"]

    def test_reduced_precision_loses_accuracy_boundedly(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 8, "DP/HP")
        err = np.max(np.abs(tiled.to_dense() - spd_matrix))
        assert 0 < err < 1e-2

    def test_dense_bytes(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 8)
        assert tiled.dense_bytes() == 64 * 64 * 8


class TestRuntimeIntegration:
    def test_custom_policy_object(self, spd_matrix):
        policy = variant_policy("DP/SP")
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 16, policy)
        assert tiled.policy is policy
