"""Exact colatitude integrals used by the spherical harmonic transforms.

The analysis step of the fast transform (Eq. 7 of the paper) reduces the
colatitude integral to the closed-form quantity

.. math::

   I(q) = \\int_0^{\\pi} e^{i q \\theta} \\sin\\theta \\, d\\theta =
   \\begin{cases}
      \\dfrac{i q \\pi}{2} \\, \\delta_{|q|,1} & q \\text{ odd}, \\\\[6pt]
      \\dfrac{2}{1 - q^2} & q \\text{ even},
   \\end{cases}

(Eq. 8).  This module evaluates :math:`I(q)`, the quantity contracted
against ``K_{m, m'}`` in Eq. (7) when the plan builds its analysis
operators.
"""

from __future__ import annotations

import numpy as np

__all__: list[str] = []


def _exponential_sine_integral(q: np.ndarray | int) -> np.ndarray:
    """Evaluate ``I(q) = integral_0^pi exp(i q theta) sin(theta) dtheta``.

    Accepts scalars or integer arrays and returns complex values following
    Eq. (8): non-zero imaginary part only for ``q = +-1``, and the real
    value ``2 / (1 - q^2)`` for even ``q``.
    """
    q = np.asarray(q, dtype=np.int64)
    out = np.zeros(q.shape, dtype=np.complex128)
    odd = (np.abs(q) % 2) == 1
    unit = np.abs(q) == 1
    out[unit] = 1j * q[unit] * np.pi / 2.0
    even = ~odd
    qe = q[even].astype(np.float64)
    out[even] = 2.0 / (1.0 - qe * qe)
    return out if out.shape else out[()]
