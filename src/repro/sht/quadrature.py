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
against ``K_{m, m'}`` in Eq. (7), and derives exact colatitude quadrature
weights on the equiangular grid and its periodic extension.  The weights
are used by the slow reference transform in :mod:`repro.sht.direct` and
by the quadrature tests.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "extended_colatitude_weights",
    "colatitude_weights",
]


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


def extended_colatitude_weights(ntheta: int) -> np.ndarray:
    """Quadrature weights on the extended colatitude grid.

    The extended grid has ``2*ntheta - 2`` equally spaced points
    ``theta_i = 2*pi*i / (2*ntheta - 2)`` covering ``[0, 2*pi)``.  The
    returned weights ``w_i`` satisfy

    ``sum_i w_i f(theta_i) = integral_0^pi f(theta) sin(theta) dtheta``

    exactly for every trigonometric polynomial ``f`` of degree at most
    ``ntheta - 2`` (i.e. free of aliasing on the extended grid).
    """
    if ntheta < 2:
        raise ValueError("ntheta must be >= 2")
    next_ = 2 * ntheta - 2
    q = np.rint(np.fft.fftfreq(next_, d=1.0 / next_)).astype(np.int64)
    iq = _exponential_sine_integral(q)
    # w_i = (1/next) sum_q I(q) exp(-i q theta_i)  ==  fft(I)[i] / next
    w_ext = np.fft.fft(iq) / next_
    return np.real(w_ext)


def colatitude_weights(ntheta: int, parity: int = 1) -> np.ndarray:
    """Colatitude weights for integrands with known reflection parity.

    For an integrand ``f`` sampled at ``theta_i = pi * i / (ntheta - 1)``
    (both poles included) whose periodic extension obeys
    ``f(2*pi - theta) = parity * f(theta)``, the returned length-``ntheta``
    weights satisfy

    ``sum_i w_i f(theta_i) = integral_0^pi f(theta) sin(theta) dtheta``

    exactly whenever ``f`` is a trigonometric polynomial of degree at most
    ``ntheta - 2``.  In the spherical-harmonic analysis of order ``m`` both
    ``G_m`` and the band-limited extension of ``Y_{l,m}(theta, 0)`` carry a
    ``(-1)**m`` reflection parity, so their product is reflection-even and
    ``parity=+1`` applies; the odd-parity weights are provided for
    completeness and for integrating ``G_m`` on its own.

    Parameters
    ----------
    ntheta:
        Number of colatitude points.
    parity:
        Either ``+1`` or ``-1``; reflection parity of the integrand.
    """
    if parity not in (1, -1):
        raise ValueError("parity must be +1 or -1")
    w_ext = extended_colatitude_weights(ntheta)
    next_ = 2 * ntheta - 2
    w = np.zeros(ntheta, dtype=np.float64)
    w[0] = w_ext[0]
    w[ntheta - 1] = w_ext[ntheta - 1]
    for i in range(1, ntheta - 1):
        w[i] = w_ext[i] + parity * w_ext[next_ - i]
    return w
