"""A single matrix tile with an assigned storage precision.

Tiles are the unit of data in the tile-based algorithms: an ``nb x nb``
block of the matrix stored at one of the three precisions.  Values are kept
in their native dtype so that reduced-precision tiles really do lose the
corresponding mantissa bits (the accuracy ablations depend on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.linalg.precision import Precision

__all__ = ["Tile"]


@dataclass
class Tile:
    """An ``m x n`` tile stored at a given precision.

    Parameters
    ----------
    data:
        The tile values; stored with the dtype of ``precision``.
    precision:
        Storage precision of the tile.
    """

    data: np.ndarray
    precision: Precision = Precision.DOUBLE
    conversions: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        # No copy when the dtype already matches: loaded factors hand in
        # views of one packed buffer per precision.
        self.data = np.asarray(self.data).astype(self.precision.dtype, copy=False)

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int]:
        """Tile shape."""
        return tuple(self.data.shape)  # type: ignore[return-value]

    @property
    def nbytes(self) -> int:
        """Bytes occupied by the tile at its storage precision."""
        return int(self.data.nbytes)

    def as_float64(self) -> np.ndarray:
        """The tile values promoted to float64."""
        return self.data.astype(np.float64)

    def convert_to(self, precision: Precision) -> "Tile":
        """Return a copy of the tile at another precision."""
        return Tile(data=self.data.astype(precision.dtype), precision=precision,
                    conversions=self.conversions + 1)

    def quantisation_error(self, reference: np.ndarray) -> float:
        """Max abs difference between the tile and a float64 reference."""
        if self.data.size == 0:
            return 0.0
        return float(np.max(np.abs(self.as_float64() - np.asarray(reference, dtype=np.float64))))
