"""The paper's four tile-precision variants of the Cholesky factor.

The paper factors the innovation covariance under four precision
variants (Section III-A.3, Fig. 4), in increasing aggressiveness:

* ``DP`` — every tile in double precision (the reference);
* ``DP/SP`` — the diagonal tiles in double precision, every other tile in
  single precision;
* ``DP/SP/HP`` — the diagonal tiles in double precision, the nearest 5% of
  off-diagonal bands in single precision, everything else in half
  precision;
* ``DP/HP`` — the diagonal tiles in double precision, everything else in
  half precision.

Correlation strength, and with it a tile's numerical weight, decays away
from the diagonal, so distant tiles tolerate lower precision.  The table
is closed: :func:`tile_codes` is where a variant name becomes the
precision of each tile, for the factorisation, the fit's error message
and the paper model's task list alike.
"""

from __future__ import annotations

import numpy as np

from repro.util.registry import UnknownBackendError

__all__ = ["VARIANTS", "tile_codes"]

#: The four variants studied in the paper, in increasing aggressiveness.
VARIANTS: tuple[str, ...] = ("DP", "DP/SP", "DP/SP/HP", "DP/HP")

#: Per variant, the precision code (an index into
#: :data:`~repro.linalg.precision._PRECISIONS`: 0 double, 1 single, 2 half)
#: of an off-diagonal tile within the nearest 5% of bands and beyond them.
_OFF_DIAGONAL = {"DP": (0, 0), "DP/SP": (1, 1), "DP/SP/HP": (1, 2), "DP/HP": (2, 2)}


def _variant(variant: str) -> str:
    """The table's spelling of ``variant``, matched case-insensitively and
    ignoring spaces; an unknown name raises, listing the four."""
    key = str(variant).strip().lower().replace(" ", "")
    for name in VARIANTS:
        if name.lower() == key:
            return name
    raise UnknownBackendError(
        f"unknown Cholesky precision variant {str(variant)!r}; the variants are "
        f"{', '.join(map(repr, VARIANTS))} (see docs/api.md#cholesky-precision-variants)"
    )


def tile_codes(variant: str, n_tiles: int) -> np.ndarray:
    """Precision code of every lower tile of an ``n_tiles x n_tiles`` tile
    grid under ``variant``, row-major (``(0, 0), (1, 0), (1, 1), ...``), as
    ``uint8``: what ``CholeskyResult.tile_precision`` holds."""
    near, far = _OFF_DIAGONAL[_variant(variant)]
    i, j = np.tril_indices(n_tiles)
    distance = i - j
    codes = np.where(distance < 1 + 0.05 * n_tiles, near, far)
    codes[distance == 0] = 0
    return codes.astype(np.uint8)
