"""Factor states written by hand, the way ``CholeskyResult.state_dict`` writes them.

``CholeskyResult.from_state`` is the one way to hold a factor that no
factorisation computed, so tests that need a given factor pack a schema-2
state here and load it through the production path.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import PRECISIONS, variant_policy


def packed_state(lower: np.ndarray, tile_size: int, variant: str) -> dict:
    """Schema-2 state of the tiles of ``lower``, each rounded to the precision
    ``variant`` assigns it.  Diagonal tiles are packed whole: what lies above
    the diagonal is for the loader to drop."""
    lower = np.asarray(lower, dtype=np.float64)
    n, nb = len(lower), tile_size
    precisions = variant_policy(variant).precision_map(-(-n // nb))
    state = {
        "n": n, "tile_size": nb, "variant": variant,
        "tile_precision": np.array(
            [PRECISIONS.index(p) for p in precisions.values()], dtype=np.uint8
        ),
        "flops_by_precision": {}, "total_flops": 0.0, "conversions": 0, "n_tasks": 0,
    }
    for precision in PRECISIONS:
        tiles = [
            lower[i * nb:i * nb + nb, j * nb:j * nb + nb].astype(precision.dtype).ravel()
            for (i, j), p in precisions.items() if p is precision
        ]
        if tiles:
            state[f"tiles_{precision.value}"] = np.concatenate(tiles)
    return state


def tile_members(state: dict) -> dict[str, np.ndarray]:
    """Schema 1's ``"<i>_<j>"`` tile members, sliced out of a schema-2 state."""
    n, nb = int(state["n"]), int(state["tile_size"])
    rows = [min(nb, n - i * nb) for i in range(-(-n // nb))]
    keys = [(i, j) for i in range(len(rows)) for j in range(i + 1)]
    offsets = dict.fromkeys(range(len(PRECISIONS)), 0)
    members = {}
    for (i, j), code in zip(keys, state["tile_precision"].tolist()):
        size = rows[i] * rows[j]
        buffer = state[f"tiles_{PRECISIONS[code].value}"]
        members[f"{i}_{j}"] = buffer[offsets[code]:offsets[code] + size].reshape(rows[i], rows[j])
        offsets[code] += size
    return members
