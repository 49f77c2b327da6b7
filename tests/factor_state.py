"""Factor states in the older layouts ``CholeskyResult.from_state`` still reads.

``CholeskyResult.from_state`` is the one way to hold a factor that no
factorisation computed, so tests that need a given factor pack a schema-2
state here and load it through the production path; the schema tests write
schema-2 and schema-1 states of a fitted factor with the same helpers.
:func:`decaying_covariance` is the SPD matrix the factorisation tests
factor at any order, and :func:`assert_states_bit_identical` compares two
whole ``state_dict()`` trees bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import tile_codes
from repro.linalg.precision import _PRECISIONS


def decaying_covariance(n: int, seed: int = 0) -> np.ndarray:
    """An order-``n`` SPD covariance whose correlations decay off the diagonal."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2 * n))
    decay = np.exp(-np.abs(np.subtract.outer(np.arange(n), np.arange(n))) / (n / 5))
    return x @ x.T / (2 * n) * decay + 0.5 * np.eye(n)


def packed_state(lower: np.ndarray, tile_size: int, variant: str) -> dict:
    """Schema-2 state of the tiles of ``lower``, each rounded to the precision
    ``variant`` assigns it.  Diagonal tiles are packed whole: what lies above
    the diagonal is for the loader to drop."""
    lower = np.asarray(lower, dtype=np.float64)
    n, nb = len(lower), tile_size
    codes = tile_codes(variant, -(-n // nb))
    state = {"n": n, "tile_size": nb, "variant": variant, "tile_precision": codes}
    for code, precision in enumerate(_PRECISIONS):
        tiles = [
            lower[i * nb:i * nb + nb, j * nb:j * nb + nb].astype(precision.dtype).ravel()
            for i, j, c in zip(*np.tril_indices(-(-n // nb)), codes) if c == code
        ]
        if tiles:
            state[f"tiles_{precision.value}"] = np.concatenate(tiles)
    return state


def schema_2_state(result) -> dict:
    """The schema-2 state of a ``CholeskyResult``: its ``state_dict`` metadata
    and codes, with the tiles packed per precision instead of the panels."""
    state = {k: v for k, v in result.state_dict().items() if not k.startswith("panel_")}
    packed = packed_state(result.lower(), result.tile_size, result.variant)
    assert np.array_equal(packed["tile_precision"], state["tile_precision"])
    return state | {k: v for k, v in packed.items() if k.startswith("tiles_")}


def tile_members(state: dict) -> dict[str, np.ndarray]:
    """Schema 1's ``"<i>_<j>"`` tile members, sliced out of a schema-2 state."""
    n, nb = int(state["n"]), int(state["tile_size"])
    rows = [min(nb, n - i * nb) for i in range(-(-n // nb))]
    keys = [(i, j) for i in range(len(rows)) for j in range(i + 1)]
    offsets = dict.fromkeys(range(len(_PRECISIONS)), 0)
    members = {}
    for (i, j), code in zip(keys, state["tile_precision"].tolist()):
        size = rows[i] * rows[j]
        buffer = state[f"tiles_{_PRECISIONS[code].value}"]
        members[f"{i}_{j}"] = buffer[offsets[code]:offsets[code] + size].reshape(rows[i], rows[j])
        offsets[code] += size
    return members


def assert_states_bit_identical(a, b, path: str = "") -> None:
    """Raise ``AssertionError`` unless two state trees are bit-identical.

    Walks nested dicts; array leaves must compare equal under
    :func:`numpy.testing.assert_array_equal`, any other leaf under ``==``.
    The failing ``path`` (e.g. ``/spectral_model/nugget_std``) is in the
    error.
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
