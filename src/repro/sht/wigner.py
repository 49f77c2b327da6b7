"""Wigner small-d matrices evaluated at ``beta = pi/2``.

The fast spherical harmonic transform of the paper (Eqs. 4-8) expands the
colatitude dependence of the harmonics in complex exponentials through the
Fourier representation of the Wigner small-d function,

.. math::

   d^\\ell_{m,n}(\\beta) = i^{m-n} \\sum_{m'=-\\ell}^{\\ell}
       \\Delta^\\ell_{m',m} \\, \\Delta^\\ell_{m',n} \\, e^{-i m' \\beta},
   \\qquad \\Delta^\\ell_{m',m} \\equiv d^\\ell_{m',m}(\\pi/2).

Only the :math:`\\Delta` matrices are therefore needed, and only at the
fixed argument :math:`\\pi/2`.  Two implementations are provided (the
textbook sum formula they are tested against lives with the tests, in
``tests/sht/reference_transform.py``):

``wigner_d_pi2``
    The full ``(2l+1) x (2l+1)`` matrix for a single degree via the stable
    degree recursion (vectorised over both orders).

``wigner_d_pi2_all``
    All degrees ``0 .. L-1`` in one sweep of the degree recursion, reusing
    the two previous degrees.  This is the production path; its cost is
    O(L^3) and matches the pre-computation strategy described in the paper
    (Section III-A.2).
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

__all__ = [
    "wigner_d_pi2",
    "wigner_d_pi2_all",
    "wigner_d_from_pi2",
]


def _seed_top_row(j: int) -> np.ndarray:
    """Values ``d^j_{j,n}(pi/2)`` for ``n = -j .. j`` (log-stable)."""
    n = np.arange(-j, j + 1, dtype=np.float64)
    # d^j_{j,n}(pi/2) = (-1)^(j-n) 2^(-j) sqrt( (2j)! / ((j+n)! (j-n)!) )
    log_ratio = gammaln(2 * j + 1) - gammaln(j + n + 1) - gammaln(j - n + 1)
    vals = np.exp(0.5 * log_ratio - j * np.log(2.0))
    signs = np.where(((j - n.astype(int)) % 2) == 0, 1.0, -1.0)
    return signs * vals


def _seed_matrix(ell: int, lmax: int) -> np.ndarray:
    """Seed values ``d^l_{m1,m2}(pi/2)`` for pairs with ``max(|m1|,|m2|) == l``.

    Returns a ``(2*lmax + 1, 2*lmax + 1)`` array (indexed by ``m + lmax``)
    with the seed entries filled in and zeros elsewhere.
    """
    out = np.zeros((2 * lmax + 1, 2 * lmax + 1), dtype=np.float64)
    if ell > lmax:
        raise ValueError("ell exceeds lmax")
    top = _seed_top_row(ell)  # d^l_{l, n}, n = -l..l
    n = np.arange(-ell, ell + 1)
    alternating = np.where((ell + n) % 2 == 0, 1.0, -1.0)  # (-1)^(l - n)
    lo, hi = lmax - ell, lmax + ell
    # The border of the degree-l block; the rows (|m1| >= |m2|) are written
    # last so they own the corners.
    out[lo:hi + 1, hi] = alternating * top        # d_{m1,l} = (-1)^(m1-l) d_{l,m1}
    out[lo:hi + 1, lo] = top[::-1]                # d_{m1,-l} = d_{l,-m1}
    out[hi, lo:hi + 1] = top                      # d_{l,m2}
    out[lo, lo:hi + 1] = alternating * top[::-1]  # d_{-l,m2} = (-1)^(l+m2) d_{l,-m2}
    return out


def wigner_d_pi2_all(lmax: int) -> list[np.ndarray]:
    """All Wigner-d matrices at ``pi/2`` for degrees ``0 .. lmax - 1``.

    Parameters
    ----------
    lmax:
        Band-limit ``L``; degrees ``0 .. L-1`` are computed.

    Returns
    -------
    list of numpy.ndarray
        ``L`` matrices; entry ``l`` has shape ``(2*l + 1, 2*l + 1)`` and is
        indexed by ``[m1 + l, m2 + l]``.

    Notes
    -----
    Uses the three-term recursion in degree specialised to ``beta = pi/2``,

    .. math::

       \\ell \\sqrt{((\\ell+1)^2 - m_1^2)((\\ell+1)^2 - m_2^2)}
           \\, d^{\\ell+1}_{m_1 m_2}
       = -(2\\ell+1) m_1 m_2 \\, d^{\\ell}_{m_1 m_2}
         - (\\ell+1) \\sqrt{(\\ell^2 - m_1^2)(\\ell^2 - m_2^2)}
           \\, d^{\\ell-1}_{m_1 m_2},

    seeded at ``l = max(|m1|, |m2|)`` with the closed-form sectoral values.
    The recursion is stable at ``pi/2`` for the degrees used here (validated
    against the exact formula in the test-suite).
    """
    if lmax < 1:
        return []
    big = 2 * lmax + 1
    m = np.arange(-lmax, lmax + 1, dtype=np.float64)
    m1 = m[:, None]
    m2 = m[None, :]

    prev2 = np.zeros((big, big), dtype=np.float64)  # degree l-2
    prev1 = np.zeros((big, big), dtype=np.float64)  # degree l-1
    results: list[np.ndarray] = []

    for ell in range(0, lmax):
        cur = np.zeros((big, big), dtype=np.float64)
        if ell >= 2:
            lm1 = float(ell - 1)
            denom = lm1 * np.sqrt(
                np.maximum((ell ** 2 - m1 ** 2), 0.0)
                * np.maximum((ell ** 2 - m2 ** 2), 0.0)
            )
            numer = (
                -(2.0 * lm1 + 1.0) * m1 * m2 * prev1
                - ell
                * np.sqrt(
                    np.maximum((lm1 ** 2 - m1 ** 2), 0.0)
                    * np.maximum((lm1 ** 2 - m2 ** 2), 0.0)
                )
                * prev2
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                rec = np.where(denom > 0.0, numer / np.where(denom > 0.0, denom, 1.0), 0.0)
            interior = (np.abs(m1) <= ell - 1) & (np.abs(m2) <= ell - 1)
            cur[interior] = rec[interior]
        elif ell == 1:
            # Only the (0, 0) entry is "interior" at l=1: d^1_{0,0}(pi/2) = 0.
            cur[lmax, lmax] = 0.0

        # Boundary entries where max(|m1|, |m2|) == ell come from the seeds.
        if ell >= 0:
            seed = _seed_matrix(ell, lmax)
            boundary = (np.maximum(np.abs(m1), np.abs(m2)) == ell) & (
                np.abs(m1) <= ell
            ) & (np.abs(m2) <= ell)
            cur[boundary] = seed[boundary]

        lo, hi = lmax - ell, lmax + ell + 1
        results.append(cur[lo:hi, lo:hi].copy())
        prev2, prev1 = prev1, cur
    return results


def wigner_d_pi2(ell: int) -> np.ndarray:
    """Wigner small-d matrix at ``pi/2`` for a single degree ``ell``."""
    if ell < 0:
        raise ValueError("degree must be non-negative")
    return wigner_d_pi2_all(ell + 1)[ell]


def wigner_d_from_pi2(ell: int, beta: float, delta: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct ``d^l(beta)`` from the ``pi/2`` matrices (Fourier form).

    Implements ``d^l_{m,n}(beta) = i^{m-n} sum_{m'} Delta_{m',m} Delta_{m',n}
    exp(-i m' beta)``; mainly used to validate the Fourier representation
    that underpins the fast transform.
    """
    if delta is None:
        delta = wigner_d_pi2(ell)
    mprime = np.arange(-ell, ell + 1)
    phases = np.exp(-1j * mprime * beta)[:, None, None]
    m = np.arange(-ell, ell + 1)
    ipow = (1j) ** (m[:, None] - m[None, :])
    total = np.einsum("pm,pn,pmn->mn", delta, delta, np.broadcast_to(phases, (2 * ell + 1, 2 * ell + 1, 2 * ell + 1)))
    return np.real(ipow * total)
