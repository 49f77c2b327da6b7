"""``real_from_complex``: the complex-to-real packing, kept as an oracle.

The fit analyses straight to the real form (``SHTPlan.forward_realform``),
so the pipeline no longer packs complex coefficients; this is the packing
``repro.sht.realform`` used to ship, the inverse of ``complex_from_real``
and the reference ``forward_realform`` must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.sht.realform import _tables
from repro.sht.transform import bandlimit_from_coeff_count

_SQRT2 = np.sqrt(2.0)


def real_from_complex(coeffs: np.ndarray) -> np.ndarray:
    """Pack complex coefficient vector(s) ``(..., L**2)`` with conjugate
    symmetry into the real representation (only ``m >= 0`` is read)."""
    coeffs = np.asarray(coeffs)
    lmax = bandlimit_from_coeff_count(coeffs.shape[-1])
    zero, pos, neg, _ = _tables(lmax)
    out = np.empty(coeffs.shape[:-1] + (lmax * lmax,), dtype=np.float64)
    out[..., zero] = coeffs[..., zero].real
    c = coeffs[..., pos]
    out[..., pos] = _SQRT2 * c.real
    out[..., neg] = _SQRT2 * c.imag
    return out
