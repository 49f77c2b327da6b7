"""Precision descriptors for mixed-precision tile algorithms.

Modern GPUs execute single- and half-precision dense kernels a large factor
faster than double precision (the paper quotes 2x/16x for V100, 16x/32x for
A100 and 14.7x/29.5x for H100).  The mixed-precision Cholesky exploits this
by storing weakly correlated off-diagonal tiles at reduced precision.  This
module defines the three storage/compute precisions, conversions between
them, and the relative-speed metadata used by the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["Precision", "parse_precision"]


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

    @property
    def short_name(self) -> str:
        """The paper's shorthand: DP, SP or HP."""
        return {
            Precision.DOUBLE: "DP",
            Precision.SINGLE: "SP",
            Precision.HALF: "HP",
        }[self]

    def convert(self, array: np.ndarray) -> np.ndarray:
        """Round an array to this precision (returned as the target dtype)."""
        return np.asarray(array).astype(self.dtype)

    def convert_via(self, array: np.ndarray) -> np.ndarray:
        """Round-trip an array through this precision back to float64.

        This is how a mixed-precision kernel's inputs look to a
        double-precision accumulation: the values carry the low-precision
        rounding error but participate in arithmetic as float64.
        """
        return self.convert(array).astype(np.float64)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: All precisions ordered from most to least accurate.
_PRECISIONS: tuple[Precision, ...] = (
    Precision.DOUBLE,
    Precision.SINGLE,
    Precision.HALF,
)


@dataclass(frozen=True)
class _Alias:
    names: tuple[str, ...]
    precision: Precision


_ALIASES = (
    _Alias(("fp64", "dp", "double", "float64", "d"), Precision.DOUBLE),
    _Alias(("fp32", "sp", "single", "float32", "s"), Precision.SINGLE),
    _Alias(("fp16", "hp", "half", "float16", "h"), Precision.HALF),
)


def parse_precision(name: str | Precision) -> Precision:
    """Parse a precision from any common spelling (``"DP"``, ``"fp32"``...)."""
    if isinstance(name, Precision):
        return name
    lowered = str(name).strip().lower()
    for alias in _ALIASES:
        if lowered in alias.names:
            return alias.precision
    raise ValueError(f"unknown precision {name!r}")
