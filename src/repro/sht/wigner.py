"""Wigner small-d matrices evaluated at ``beta = pi/2``.

The fast spherical harmonic transform of the paper (Eqs. 4-8) expands the
colatitude dependence of the harmonics in complex exponentials through the
Fourier representation of the Wigner small-d function,

.. math::

   d^\\ell_{m,n}(\\beta) = i^{m-n} \\sum_{m'=-\\ell}^{\\ell}
       \\Delta^\\ell_{m',m} \\, \\Delta^\\ell_{m',n} \\, e^{-i m' \\beta},
   \\qquad \\Delta^\\ell_{m',m} \\equiv d^\\ell_{m',m}(\\pi/2).

Only the :math:`\\Delta` matrices are therefore needed, only at the fixed
argument :math:`\\pi/2`, and — since the plan folds the signed orders onto
``m, m' >= 0`` through the matrices' symmetries — only their ``m', m >= 0``
quadrant.  :func:`wigner_d_pi2_quadrants` builds those quadrants for all
degrees ``0 .. L-1`` in one sweep of the stable degree recursion, reusing
the two previous degrees' quadrants: about ``L^3 / 3`` entries in all
(5.6 MB at ``L = 128``), a quarter of the full ``(2l+1)^2`` matrices, with
no temporary larger than one degree's quadrant.  This is the
pre-computation the paper describes (Section III-A.2).  The full-matrix
recursion, the textbook sum formula and the Fourier form above, which the
quadrants are tested against, live with the tests, in
``tests/sht/reference_transform.py``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

__all__ = ["wigner_d_pi2_quadrants"]


def _seed_top_row(j: int) -> np.ndarray:
    """Values ``d^j_{j,n}(pi/2)`` for ``n = -j .. j`` (log-stable)."""
    n = np.arange(-j, j + 1, dtype=np.float64)
    # d^j_{j,n}(pi/2) = (-1)^(j-n) 2^(-j) sqrt( (2j)! / ((j+n)! (j-n)!) )
    log_ratio = gammaln(2 * j + 1) - gammaln(j + n + 1) - gammaln(j - n + 1)
    vals = np.exp(0.5 * log_ratio - j * np.log(2.0))
    signs = np.where(((j - n.astype(int)) % 2) == 0, 1.0, -1.0)
    return signs * vals


def wigner_d_pi2_quadrants(lmax: int) -> list[np.ndarray]:
    """The ``m', m >= 0`` quadrants of the Wigner-d matrices at ``pi/2``.

    Parameters
    ----------
    lmax:
        Band-limit ``L``; degrees ``0 .. L-1`` are computed.

    Returns
    -------
    list of numpy.ndarray
        ``L`` matrices; entry ``l`` has shape ``(l + 1, l + 1)`` and holds
        ``d^l_{m',m}(pi/2)`` at ``[m', m]`` for ``0 <= m', m <= l``.

    Notes
    -----
    Uses the three-term recursion in degree specialised to ``beta = pi/2``,

    .. math::

       \\ell \\sqrt{((\\ell+1)^2 - m_1^2)((\\ell+1)^2 - m_2^2)}
           \\, d^{\\ell+1}_{m_1 m_2}
       = -(2\\ell+1) m_1 m_2 \\, d^{\\ell}_{m_1 m_2}
         - (\\ell+1) \\sqrt{(\\ell^2 - m_1^2)(\\ell^2 - m_2^2)}
           \\, d^{\\ell-1}_{m_1 m_2},

    seeded at ``l = max(m1, m2)`` with the closed-form sectoral values.  An
    entry's recursion reads only the same ``(m1, m2)`` entry of the two
    previous degrees, so the quadrant closes on itself.  Where degree
    ``l - 2`` has no such entry (``max(m1, m2) = l - 1``) its factor
    ``sqrt(((l-1)^2 - m_1^2)((l-1)^2 - m_2^2))`` is zero, and the term is
    dropped.  The recursion is stable at ``pi/2`` for the degrees used here
    (validated against the exact formula in the test-suite).
    """
    if lmax < 1:
        return []
    m = np.arange(lmax, dtype=np.float64)
    quadrants: list[np.ndarray] = []
    for ell in range(lmax):
        cur = np.empty((ell + 1, ell + 1), dtype=np.float64)
        if ell >= 2:
            # The interior max(m1, m2) <= l - 1, where every denominator is > 0.
            m1, m2 = m[:ell, None], m[None, :ell]
            lm1 = float(ell - 1)
            denom = lm1 * np.sqrt(
                np.maximum((ell ** 2 - m1 ** 2), 0.0)
                * np.maximum((ell ** 2 - m2 ** 2), 0.0)
            )
            numer = -(2.0 * lm1 + 1.0) * m1 * m2 * quadrants[ell - 1]
            m1, m2 = m1[:-1], m2[:, :-1]
            numer[:-1, :-1] -= (
                ell
                * np.sqrt(
                    np.maximum((lm1 ** 2 - m1 ** 2), 0.0)
                    * np.maximum((lm1 ** 2 - m2 ** 2), 0.0)
                )
                * quadrants[ell - 2]
            )
            np.divide(numer, denom, out=cur[:ell, :ell])
        elif ell == 1:
            cur[0, 0] = 0.0  # d^1_{0,0}(pi/2) = 0
        # The border max(m1, m2) == l from the seeds; the row is written
        # last so it owns the corner.
        top = _seed_top_row(ell)[ell:]  # d^l_{l, n}, n = 0..l
        alternating = np.where((ell + np.arange(ell + 1)) % 2 == 0, 1.0, -1.0)  # (-1)^(l - n)
        cur[:, ell] = alternating * top  # d_{m1,l} = (-1)^(m1-l) d_{l,m1}
        cur[ell] = top                   # d_{l,m2}
        quadrants.append(cur)
    return quadrants
