"""Precision-assignment policies for tiled symmetric matrices.

The paper evaluates four precision variants of the tile Cholesky
factorisation (Section IV-B):

* ``DP`` — every tile in double precision (the reference);
* ``DP/SP`` — the diagonal band in double precision, every other tile in
  single precision;
* ``DP/SP/HP`` — the diagonal band in double precision, the nearest 5% of
  off-diagonal bands in single precision, everything else in half
  precision;
* ``DP/HP`` — the diagonal band in double precision, everything else in
  half precision.

Band policies reflect the covariance structure of the spherical-harmonic
innovation matrix: correlation strength (and hence the numerical weight of
a tile) decays away from the diagonal, so distant tiles tolerate lower
precision.  A data-adaptive (tile-centric) policy is also provided, which
inspects tile norms instead of positions, mirroring the adaptive approach
of the authors' earlier work cited in Section III-D.

Where a tile produced at one precision and consumed at another is
converted is the :class:`ConversionSide` policy of Section V-A.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from repro.linalg.precision import Precision
from repro.util.registry import BackendRegistry

__all__ = [
    "CHOLESKY_VARIANTS",
    "ConversionSide",
    "PrecisionPolicy",
    "band_policy",
    "variant_policy",
    "adaptive_policy",
    "VARIANTS",
]


class ConversionSide(str, Enum):
    """Where a precision conversion of a communicated tile happens.

    When a tile is produced at one precision and consumed at a lower
    one, converting at the sender shrinks the message (and performs the
    conversion once), whereas converting at the receiver ships the
    full-precision tile and repeats the conversion per consumer
    (Section V-A).
    """

    SENDER = "sender"
    RECEIVER = "receiver"


@dataclass(frozen=True)
class PrecisionPolicy:
    """Assign a storage precision to each tile of a tiled matrix.

    Parameters
    ----------
    name:
        Display name (e.g. ``"DP/HP"``).
    assign:
        Callable ``assign(i, j, n_tiles) -> Precision`` for tile ``(i, j)``
        of an ``n_tiles x n_tiles`` tile grid (lower-triangular indices,
        ``i >= j``).
    """

    name: str
    assign: Callable[[int, int, int], Precision]

    def precision_map(self, n_tiles: int) -> dict[tuple[int, int], Precision]:
        """Precisions of every lower-triangular tile."""
        return {
            (i, j): self.assign(i, j, n_tiles)
            for i in range(n_tiles)
            for j in range(i + 1)
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def band_policy(
    name: str,
    bands: tuple[tuple[int | float, Precision], ...],
    default: Precision,
) -> PrecisionPolicy:
    """Build a policy from (band-width, precision) pairs.

    ``bands`` is a sequence of ``(width, precision)`` tuples interpreted in
    order: a tile ``(i, j)`` whose distance from the diagonal ``|i - j|`` is
    strictly less than the cumulative width receives that precision.  A
    float width in ``(0, 1)`` is interpreted as a fraction of ``n_tiles``.
    Tiles beyond every band get ``default``.
    """

    def assign(i: int, j: int, n_tiles: int) -> Precision:
        distance = abs(i - j)
        cumulative = 0.0
        for width, precision in bands:
            w = width * n_tiles if isinstance(width, float) and width < 1 else width
            cumulative += max(float(w), 0.0)
            if distance < cumulative:
                return precision
        return default

    return PrecisionPolicy(name=name, assign=assign)


#: Registry of named Cholesky tile-precision policies.  The four paper
#: variants are registered below; new policies can be added with
#: ``CHOLESKY_VARIANTS.register(name, factory)`` and then referenced by
#: name from :class:`~repro.core.config.EmulatorConfig` without touching
#: any consumer code.
CHOLESKY_VARIANTS = BackendRegistry(
    "Cholesky precision variant", doc_hint="docs/api.md#cholesky-precision-variants"
)

CHOLESKY_VARIANTS.register(
    "DP",
    lambda: band_policy("DP", (), Precision.DOUBLE),
    description="every tile in double precision (the reference)",
)
CHOLESKY_VARIANTS.register(
    "DP/SP",
    lambda: band_policy("DP/SP", ((1, Precision.DOUBLE),), Precision.SINGLE),
    description="double-precision diagonal band, single precision elsewhere",
)
CHOLESKY_VARIANTS.register(
    "DP/SP/HP",
    lambda: band_policy(
        "DP/SP/HP",
        ((1, Precision.DOUBLE), (0.05, Precision.SINGLE)),
        Precision.HALF,
    ),
    description=(
        "double-precision diagonal band, nearest 5% of off-diagonal bands "
        "in single precision, half precision elsewhere"
    ),
)
CHOLESKY_VARIANTS.register(
    "DP/HP",
    lambda: band_policy("DP/HP", ((1, Precision.DOUBLE),), Precision.HALF),
    description="double-precision diagonal band, half precision elsewhere",
)


def variant_policy(variant: str) -> PrecisionPolicy:
    """The paper's named variants (DP, DP/SP, DP/SP/HP, DP/HP) by name.

    The diagonal band (distance 0, i.e. the diagonal tiles and their
    immediate neighbours' diagonal blocks) stays in double precision in all
    mixed variants; DP/SP/HP additionally keeps the nearest 5% of
    off-diagonal bands in single precision (Section IV-B).  Resolution goes
    through :data:`CHOLESKY_VARIANTS`, so policies registered there are
    available here (and through :class:`~repro.core.config.EmulatorConfig`)
    under their registered names; unknown names raise an error listing the
    available variants.
    """
    return CHOLESKY_VARIANTS.create(variant)


#: The four variants studied in the paper, in increasing aggressiveness.
VARIANTS: tuple[str, ...] = ("DP", "DP/SP", "DP/SP/HP", "DP/HP")


def adaptive_policy(
    matrix: np.ndarray,
    tile_size: int,
    sp_threshold: float = 1e-2,
    hp_threshold: float = 1e-4,
    name: str = "adaptive",
) -> PrecisionPolicy:
    """Tile-centric adaptive policy based on relative tile norms.

    Tiles whose Frobenius norm relative to the largest diagonal tile norm
    falls below ``sp_threshold`` are stored in single precision, and below
    ``hp_threshold`` in half precision; diagonal tiles always stay double.
    This mimics the numerics-driven ("tile-centric") precision selection of
    the authors' earlier geospatial work.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    n_tiles = int(np.ceil(n / tile_size))
    norms = np.zeros((n_tiles, n_tiles))
    for i in range(n_tiles):
        for j in range(i + 1):
            block = matrix[
                i * tile_size: min((i + 1) * tile_size, n),
                j * tile_size: min((j + 1) * tile_size, n),
            ]
            norms[i, j] = np.linalg.norm(block)
    diag_ref = max(norms[i, i] for i in range(n_tiles)) or 1.0
    rel = norms / diag_ref

    def assign(i: int, j: int, nt: int) -> Precision:
        if i == j:
            return Precision.DOUBLE
        if i >= rel.shape[0] or j >= rel.shape[1]:
            return Precision.DOUBLE
        value = rel[i, j]
        if value < hp_threshold:
            return Precision.HALF
        if value < sp_threshold:
            return Precision.SINGLE
        return Precision.DOUBLE

    return PrecisionPolicy(name=name, assign=assign)
