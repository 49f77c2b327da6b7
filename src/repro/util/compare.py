"""Bit-exact comparison of nested ``state_dict`` trees.

The library's determinism contracts ("``save`` / ``load`` round-trips
the fitted state", "batched campaigns equal one-run blocks") are pinned by
comparing whole ``state_dict()`` trees bit for bit.  The recursive walk
lives here — a dependency-free leaf — so the test-suite and the
benchmark harness share one implementation instead of drifting copies.
"""

from __future__ import annotations

import numpy as np

__all__ = ["assert_states_bit_identical"]


def assert_states_bit_identical(a, b, path: str = "") -> None:
    """Raise ``AssertionError`` unless two state trees are bit-identical.

    Walks nested dicts; array leaves must compare equal under
    :func:`numpy.array_equal` (bit-identical values, NaNs excluded as in
    the fitted-state contract — fitted arrays are finite), any other
    leaf under ``==``.  The failing ``path`` (e.g.
    ``/spectral_model/covariance``) is included in the error.
    """
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), (
            f"state keys differ at {path or '/'}"
        )
        for key in a:
            assert_states_bit_identical(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b),
                                      err_msg=path or "/")
    else:
        assert a == b, f"state leaves differ at {path or '/'}: {a!r} != {b!r}"
