"""Literal complex transcription of Eqs. (4)-(8): the oracle for ``SHTPlan``.

The production plan keeps the orders ``m >= 0`` only, works in real
arithmetic and folds every symmetry into its operators.  These routines
fold nothing: all ``2L - 1`` signed orders, complex FFTs over the
explicitly extended colatitude, the full complex ``I(m' + m'')`` matrix,
and a per-degree Python loop over the Wigner-d tables — the readable form
of the paper's equations, slow and only ever run by the tests, which pin
the plan's stages to them within reassociation error (``<= 1e-12``).
The plan's GEMMs land on (start from) colatitude *samples*, so its stages
are compared after (before) the oracle's colatitude transform.

All arrays carry the signed orders ``-(L-1) .. L-1`` ascending on their
``m`` / ``m'`` axes, so order ``m`` sits at index ``m + L - 1``.

The textbook oracles the production code is checked against live here
too: :func:`wigner_d_pi2_all` (the full ``(2l+1)^2`` matrices at ``pi/2``
by the degree recursion, of which the plan's quadrants are the
``m', m >= 0`` corner bit for bit), :func:`wigner_d_explicit` (the Wigner
sum formula with exact integer factorials), :func:`wigner_d_from_pi2` (its
Fourier form from the ``pi/2`` tables), :func:`integral_matrix` (the full ``I(m' + m'')`` matrix) and
:func:`coeff_lm` (the inverse of ``coeff_index``), next to the one-shot
wrappers :func:`sht_forward` / :func:`sht_inverse` (a throw-away plan per
call).
"""

from __future__ import annotations

from math import factorial, isqrt

import numpy as np

from repro.sht.grid import Grid
from repro.sht.quadrature import _exponential_sine_integral
from repro.sht.transform import SHTPlan, bandlimit_from_coeff_count
from repro.sht.wigner import _seed_top_row


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

    Entry ``l`` has shape ``(2*l + 1, 2*l + 1)`` and is indexed by
    ``[m1 + l, m2 + l]``.  The three-term degree recursion of
    :func:`repro.sht.wigner.wigner_d_pi2_quadrants` run on the full
    ``(2L+1)^2`` grid of signed orders, every degree at once, with mask
    scatters — the readable form the quadrants are pinned to bit for bit.
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
        seed = _seed_matrix(ell, lmax)
        boundary = (np.maximum(np.abs(m1), np.abs(m2)) == ell) & (
            np.abs(m1) <= ell
        ) & (np.abs(m2) <= ell)
        cur[boundary] = seed[boundary]

        lo, hi = lmax - ell, lmax + ell + 1
        results.append(cur[lo:hi, lo:hi].copy())
        prev2, prev1 = prev1, cur
    return results


def wigner_d_explicit(ell: int, beta: float) -> np.ndarray:
    """Wigner small-d matrix ``d^l_{m1,m2}(beta)`` by the explicit sum.

    Returns an array of shape ``(2*ell + 1, 2*ell + 1)`` indexed by
    ``[m1 + ell, m2 + ell]``.  Exact (up to floating point rounding of the
    trigonometric factors) but O(l^3) per matrix with large intermediate
    factorials, so intended for validation at small degree only.
    """
    if ell < 0:
        raise ValueError("degree must be non-negative")
    size = 2 * ell + 1
    out = np.zeros((size, size), dtype=np.float64)
    c = np.cos(beta / 2.0)
    s = np.sin(beta / 2.0)
    for m1 in range(-ell, ell + 1):
        for m2 in range(-ell, ell + 1):
            pref = np.sqrt(
                float(factorial(ell + m1))
                * float(factorial(ell - m1))
                * float(factorial(ell + m2))
                * float(factorial(ell - m2))
            )
            smin = max(0, m2 - m1)
            smax = min(ell + m2, ell - m1)
            total = 0.0
            for k in range(smin, smax + 1):
                denom = (
                    float(factorial(ell + m2 - k))
                    * float(factorial(k))
                    * float(factorial(m1 - m2 + k))
                    * float(factorial(ell - m1 - k))
                )
                power_c = 2 * ell + m2 - m1 - 2 * k
                power_s = m1 - m2 + 2 * k
                total += ((-1.0) ** (m1 - m2 + k)) * (c ** power_c) * (s ** power_s) / denom
            out[m1 + ell, m2 + ell] = pref * total
    return out


def wigner_d_from_pi2(ell: int, beta: float) -> np.ndarray:
    """``d^l(beta)`` rebuilt from the recursion's ``pi/2`` matrices by the
    Fourier form ``d^l_{m,n}(beta) = i^{m-n} sum_{m'} Delta_{m',m}
    Delta_{m',n} exp(-i m' beta)`` that underpins the fast transform."""
    delta = wigner_d_pi2_all(ell + 1)[ell]
    mprime = np.arange(-ell, ell + 1)
    phases = np.exp(-1j * mprime * beta)
    ipow = (1j) ** (mprime[:, None] - mprime[None, :])
    return np.real(ipow * np.einsum("pm,pn,p->mn", delta, delta, phases))


def integral_matrix(lmax: int) -> np.ndarray:
    """Matrix ``I[m' + lmax - 1, m'' + lmax - 1] = I(m' + m'')``.

    Both ``m'`` and ``m''`` range over ``-(lmax - 1) .. (lmax - 1)``, giving
    a ``(2*lmax - 1, 2*lmax - 1)`` complex matrix.  This is the quantity
    contracted against ``K_{m, m'}`` in Eq. (7).
    """
    if lmax < 1:
        raise ValueError("lmax must be >= 1")
    m = np.arange(-(lmax - 1), lmax)
    return _exponential_sine_integral(m[:, None] + m[None, :])


def coeff_lm(index: int) -> tuple[int, int]:
    """Inverse of ``repro.sht.coeff_index``: returns ``(l, m)`` for a flat index.

    Exact for every non-negative integer: the degree is recovered with
    :func:`math.isqrt` rather than a float square root, whose rounding
    near large perfect squares (e.g. ``index = (2**27)**2 - 1``) would
    otherwise produce an invalid ``m < -l`` pair.
    """
    index = int(index)
    if index < 0:
        raise ValueError("index must be non-negative")
    ell = isqrt(index)
    m = index - ell * ell - ell
    return ell, m


def sht_forward(data: np.ndarray, lmax: int, grid: Grid | None = None) -> np.ndarray:
    """One-shot forward transform (builds a throw-away plan)."""
    data = np.asarray(data)
    if grid is None:
        grid = Grid(ntheta=data.shape[-2], nphi=data.shape[-1])
    return SHTPlan(lmax=lmax, grid=grid).forward(data)


def sht_inverse(coeffs: np.ndarray, grid: Grid, real: bool = True) -> np.ndarray:
    """One-shot inverse transform (builds a throw-away plan).

    The trailing axis must hold a full coefficient set, i.e. its length
    must be a perfect square ``L**2``; anything else raises
    ``ValueError`` (see ``bandlimit_from_coeff_count``).
    """
    coeffs = np.asarray(coeffs)
    lmax = bandlimit_from_coeff_count(coeffs.shape[-1])
    return SHTPlan(lmax=lmax, grid=grid).inverse(coeffs, real=real)


def _orders(lmax: int) -> np.ndarray:
    return np.arange(-(lmax - 1), lmax)


def _fft_bins(lmax: int, nfft: int) -> np.ndarray:
    m = _orders(lmax)
    return np.where(m >= 0, m, nfft + m)


def colatitude_fourier_reference(fields: np.ndarray, lmax: int) -> np.ndarray:
    """``K_{m, m'}`` of Eq. (6), shape ``(..., 2L-1, 2L-1)``, from grid fields."""
    ntheta, nphi = fields.shape[-2:]
    next_ = 2 * ntheta - 2
    g = (np.fft.fft(fields, axis=-1) * (2.0 * np.pi / nphi))[..., _fft_bins(lmax, nphi)]
    parity = np.where(_orders(lmax) % 2 == 0, 1.0, -1.0)
    g_ext = np.empty(g.shape[:-2] + (next_, 2 * lmax - 1), dtype=np.complex128)
    g_ext[..., :ntheta, :] = g
    # G_m(2*pi - theta) = (-1)**m G_m(theta)
    g_ext[..., ntheta:, :] = parity * g[..., ntheta - 2:0:-1, :]
    k = (np.fft.fft(g_ext, axis=-2) / next_)[..., _fft_bins(lmax, next_), :]
    return np.swapaxes(k, -1, -2)


def wigner_contraction_forward_reference(k: np.ndarray, lmax: int) -> np.ndarray:
    """Per-degree assembly of Eq. (7): ``K`` to the ``L**2`` coefficients."""
    delta_all = wigner_d_pi2_all(lmax)
    w = k @ integral_matrix(lmax)  # (..., m, m'')
    coeffs = np.zeros(k.shape[:-2] + (lmax * lmax,), dtype=np.complex128)
    centre = lmax - 1
    i_pow_neg_m = (1j) ** (-_orders(lmax))
    for ell in range(lmax):
        delta = delta_all[ell]  # (2l+1, 2l+1) indexed [m''+l, m+l]
        norm = np.sqrt((2.0 * ell + 1.0) / (4.0 * np.pi))
        sl = slice(centre - ell, centre + ell + 1)
        weighted = w[..., sl, sl] * delta[:, ell]  # Delta^l_{m'', 0}
        summed = np.einsum("...ab,ba->...a", weighted, delta)
        coeffs[..., ell * ell:(ell + 1) ** 2] = norm * i_pow_neg_m[sl] * summed
    return coeffs


def wigner_contraction_inverse_reference(coeffs: np.ndarray, lmax: int) -> np.ndarray:
    """Per-degree accumulation of Eq. (7): coefficients to ``C_{m, m'}``."""
    delta_all = wigner_d_pi2_all(lmax)
    n_orders = 2 * lmax - 1
    c = np.zeros(coeffs.shape[:-1] + (n_orders, n_orders), dtype=np.complex128)
    centre = lmax - 1
    i_pow_neg_m = (1j) ** (-_orders(lmax))
    for ell in range(lmax):
        delta = delta_all[ell]
        norm = np.sqrt((2.0 * ell + 1.0) / (4.0 * np.pi))
        f_l = coeffs[..., ell * ell:(ell + 1) ** 2]  # (..., m)
        # C_{m, m'} += f_{l,m} i^{-m} norm Delta_{m', 0} Delta_{m', m}
        contrib = np.einsum("...a,ba->...ab", f_l, delta * delta[:, ell][:, None])
        sl = slice(centre - ell, centre + ell + 1)
        c[..., sl, sl] += norm * contrib * i_pow_neg_m[sl][:, None]
    return c


def colatitude_synthesis_reference(c: np.ndarray, ntheta: int) -> np.ndarray:
    """``H_m(theta_i)`` of all signed orders, ``(..., ntheta, 2L-1)``, from ``C_{m, m'}``:
    a full iFFT over the extended colatitude, its first ``ntheta`` points kept."""
    lmax = (c.shape[-1] + 1) // 2
    next_ = 2 * ntheta - 2
    full = np.zeros(c.shape[:-1] + (next_,), dtype=np.complex128)
    full[..., _fft_bins(lmax, next_)] = c
    return np.swapaxes((np.fft.ifft(full, axis=-1) * next_)[..., :ntheta], -1, -2)


def synthesis_from_fourier_reference(c: np.ndarray, ntheta: int, nphi: int) -> np.ndarray:
    """The complex field ``(..., ntheta, nphi)`` from ``C_{m, m'}``: two full iFFTs."""
    lmax = (c.shape[-1] + 1) // 2
    h = colatitude_synthesis_reference(c, ntheta)
    full_phi = np.zeros(h.shape[:-1] + (nphi,), dtype=np.complex128)
    full_phi[..., _fft_bins(lmax, nphi)] = h
    return np.fft.ifft(full_phi, axis=-1) * nphi


def samples_from_stage(stage: np.ndarray, ntheta: int) -> np.ndarray:
    """A plan stage array as the oracle's ``(..., ntheta, L)`` complex samples.

    ``stage`` is ``(L, 2, ..., W)`` real / imaginary planes of ``H_m`` or
    ``G_m`` at the grid's colatitudes for the orders ``m >= 0``, as the
    plan's contraction and FFT stages exchange them; the ``W - ntheta``
    padding columns must be exact zeros.  Order ``m`` of the oracle's
    signed-order arrays sits at index ``m + L - 1``.
    """
    assert stage.dtype == np.float64 and not stage[..., ntheta:].any()
    return np.moveaxis(stage[:, 0, ..., :ntheta] + 1j * stage[:, 1, ..., :ntheta], 0, -1)
