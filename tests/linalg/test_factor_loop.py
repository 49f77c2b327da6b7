"""The panel-blocked factorisation loop against the tile-column loop it replaced.

``_factor_panels`` updates a row panel's columns against every final column
to their left at once and runs the tile loop only inside the panel; the
tile-column loop (``tile_column_cholesky.py``) updates each tile column
against all of them.  Same tiles, same rounding points, same POTRF
safeguards: the factors agree to rounding in double precision and to the
variants' own error in mixed precision, with the same layout.
"""

import numpy as np
import pytest
from factor_state import decaying_covariance  # tests/ is on sys.path (rootdir layout)
from tile_column_cholesky import tile_column_factorize

from repro.linalg import MixedPrecisionCholesky
from repro.linalg.cholesky import _panel_bounds

#: ``(n, tile_size)``: three tiles per panel; the same with a ragged last
#: tile; a ragged 33-wide tiling; a matrix of one panel; the L = 32 fit
#: geometry, one 64-wide tile per panel.
SHAPES = [(300, 24), (301, 24), (250, 33), (50, 16), (1024, 64)]
SHAPE_IDS = ["3-tiles-per-panel", "ragged-last-tile", "ragged-33", "one-panel", "L32"]


def _layout(result) -> list:
    return [
        (rows, [(cols, part.shape, part.dtype) for cols, part in parts])
        for rows, parts in result.panels
    ]


def test_the_shapes_cover_what_they_claim():
    tiles_per_panel = {
        name: [last - first for first, last, _ in _panel_bounds(n, nb)]
        for name, (n, nb) in zip(SHAPE_IDS, SHAPES)
    }
    assert min(tiles_per_panel["3-tiles-per-panel"]) >= 2
    assert 301 % 24 and len(tiles_per_panel["one-panel"]) == 1
    assert set(tiles_per_panel["L32"]) == {1}


@pytest.mark.parametrize("n, tile_size", SHAPES, ids=SHAPE_IDS)
class TestAgainstTheTileColumnLoop:
    def test_double_precision_factor_agrees_to_rounding(self, n, tile_size):
        matrix = decaying_covariance(n, seed=n)
        solver = MixedPrecisionCholesky(tile_size, "DP")
        ours, reference = solver.factorize(matrix), tile_column_factorize(solver, matrix)
        assert np.array_equal(ours.tile_precision, reference.tile_precision)
        assert _layout(ours) == _layout(reference)
        lower, expected = ours.lower(), reference.lower()
        assert np.max(np.abs(lower - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("variant, jitter", [("DP/SP", 0.0), ("DP/SP/HP", 1e-3)])
    def test_mixed_precision_error_is_the_references(self, n, tile_size, variant, jitter):
        matrix = decaying_covariance(n, seed=n)
        solver = MixedPrecisionCholesky(tile_size, variant, jitter=jitter)
        ours, reference = solver.factorize(matrix), tile_column_factorize(solver, matrix)
        assert np.array_equal(ours.tile_precision, reference.tile_precision)
        assert _layout(ours) == _layout(reference)
        error, expected = ours.relative_error(matrix), reference.relative_error(matrix)
        assert abs(error - expected) <= 0.01 * expected


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("variant", ["DP", "DP/SP/HP"])
@pytest.mark.parametrize(
    "position",
    [(0, 0), (30, 3), (71, 50), (299, 0), (299, 298), (299, 299), (150, 140)],
    ids=["first", "tile-below-diagonal", "first-panel-edge", "last-row-first-column",
         "last-row-near-diagonal", "last", "later-panel"],
)
def test_a_non_finite_value_below_the_diagonal_raises(position, variant, value):
    """Whichever tile holds it, the value reaches the POTRF of a diagonal tile
    at or after its own, whose finite check refuses it."""
    matrix = decaying_covariance(300)
    matrix[position] = value
    with pytest.raises(ValueError, match="infs or NaNs"):
        MixedPrecisionCholesky(24, variant, jitter=1e-3).factorize(matrix)
