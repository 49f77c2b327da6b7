"""Precision descriptors for mixed-precision tile algorithms.

Modern GPUs execute single- and half-precision dense kernels a large factor
faster than double precision (the paper quotes 2x/16x for V100, 16x/32x for
A100 and 14.7x/29.5x for H100).  The mixed-precision Cholesky exploits this
by storing weakly correlated off-diagonal tiles at reduced precision.  This
module defines the three storage/compute precisions, each with its NumPy
dtype, storage bytes per element and unit roundoff, and
:data:`_PRECISIONS`, whose order gives the tile precision codes.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["Precision"]


class Precision(str, Enum):
    """Floating-point precision of a tile (storage and compute)."""

    DOUBLE = "fp64"
    SINGLE = "fp32"
    HALF = "fp16"

    # ------------------------------------------------------------------ #
    @property
    def dtype(self) -> np.dtype:
        """NumPy dtype used to store tiles at this precision."""
        return {
            Precision.DOUBLE: np.dtype(np.float64),
            Precision.SINGLE: np.dtype(np.float32),
            Precision.HALF: np.dtype(np.float16),
        }[self]

    @property
    def bytes_per_element(self) -> int:
        """Storage cost per element."""
        return int(self.dtype.itemsize)

    @property
    def epsilon(self) -> float:
        """Unit roundoff of the precision."""
        return float(np.finfo(self.dtype).eps)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: All precisions ordered from most to least accurate.
_PRECISIONS: tuple[Precision, ...] = (
    Precision.DOUBLE,
    Precision.SINGLE,
    Precision.HALF,
)

