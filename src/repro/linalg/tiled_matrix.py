"""Tiled storage of symmetric positive-definite matrices.

The covariance matrix ``U`` of the emulator's spectral innovations is
symmetric positive definite; only its lower triangle is stored, partitioned
into square tiles whose individual storage precision is dictated by a
:class:`~repro.linalg.policies.PrecisionPolicy`.  The container provides
conversion to and from dense float64 matrices, and per-precision byte
accounting (the memory-saving side of mixed precision).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.linalg.policies import PrecisionPolicy, variant_policy
from repro.linalg.precision import Precision
from repro.linalg.tile import Tile

__all__ = ["TiledSymmetricMatrix"]


@dataclass
class TiledSymmetricMatrix:
    """Lower-triangular tiled storage of a symmetric matrix.

    Parameters
    ----------
    n:
        Matrix order.
    tile_size:
        Tile edge length ``nb``; the last tile row/column may be smaller.
    tiles:
        Mapping ``(i, j) -> Tile`` for ``i >= j``.
    policy:
        The precision policy the tiles were built with (kept for reporting).
    """

    n: int
    tile_size: int
    tiles: dict[tuple[int, int], Tile] = field(default_factory=dict)
    policy: PrecisionPolicy | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(
        cls,
        matrix: np.ndarray,
        tile_size: int,
        policy: PrecisionPolicy | str = "DP",
    ) -> "TiledSymmetricMatrix":
        """Tile a dense symmetric matrix under a precision policy."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if tile_size < 1:
            raise ValueError("tile_size must be positive")
        if isinstance(policy, str):
            policy = variant_policy(policy)
        n = matrix.shape[0]
        n_tiles = int(np.ceil(n / tile_size))
        tiles: dict[tuple[int, int], Tile] = {}
        for i in range(n_tiles):
            for j in range(i + 1):
                block = matrix[
                    i * tile_size: min((i + 1) * tile_size, n),
                    j * tile_size: min((j + 1) * tile_size, n),
                ]
                precision = policy.assign(i, j, n_tiles)
                tiles[(i, j)] = Tile(data=block.copy(), precision=precision)
        return cls(n=n, tile_size=tile_size, tiles=tiles, policy=policy)

    # ------------------------------------------------------------------ #
    # Shape helpers
    # ------------------------------------------------------------------ #
    @property
    def n_tiles(self) -> int:
        """Number of tile rows/columns."""
        return int(np.ceil(self.n / self.tile_size))

    def tile_rows(self, i: int) -> int:
        """Row count of tiles in tile-row ``i``."""
        return min(self.tile_size, self.n - i * self.tile_size)

    def tile(self, i: int, j: int) -> Tile:
        """The tile at ``(i, j)`` of the lower triangle."""
        if j > i:
            raise KeyError("only the lower triangle is stored")
        return self.tiles[(i, j)]

    # ------------------------------------------------------------------ #
    # Conversions and accounting
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Reassemble the dense symmetric float64 matrix in one pass over the tiles."""
        out = np.zeros((self.n, self.n), dtype=np.float64)
        nb = self.tile_size
        for (i, j), tile in self.tiles.items():
            ri = slice(i * nb, i * nb + tile.shape[0])
            cj = slice(j * nb, j * nb + tile.shape[1])
            out[ri, cj] = np.tril(tile.data) if i == j else tile.data
        return out + np.tril(out, -1).T

    def storage_bytes(self) -> int:
        """Total bytes of the tiled (mixed-precision) representation."""
        return int(sum(t.nbytes for t in self.tiles.values()))

    def dense_bytes(self, precision: Precision = Precision.DOUBLE) -> int:
        """Bytes of a dense full-matrix copy at a uniform precision."""
        return int(self.n) * int(self.n) * precision.bytes_per_element

    def bytes_by_precision(self) -> dict[Precision, int]:
        """Tiled storage grouped by precision."""
        out: dict[Precision, int] = {p: 0 for p in Precision}
        for tile in self.tiles.values():
            out[tile.precision] += tile.nbytes
        return {p: b for p, b in out.items() if b}

    def compression_ratio(self) -> float:
        """Dense double-precision bytes divided by mixed-precision bytes.

        Only the stored lower triangle is compared against its dense
        double-precision equivalent, so a full-DP policy reports 1.0.
        """
        dense_lower = 0
        nb = self.tile_size
        for (i, j), tile in self.tiles.items():
            dense_lower += tile.data.size * Precision.DOUBLE.bytes_per_element
        stored = self.storage_bytes()
        return dense_lower / stored if stored else 1.0

    def precision_counts(self) -> dict[str, int]:
        """Number of tiles per precision short-name."""
        out: dict[str, int] = {}
        for tile in self.tiles.values():
            key = tile.precision.short_name
            out[key] = out.get(key, 0) + 1
        return out
