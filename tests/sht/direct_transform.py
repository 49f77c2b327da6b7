"""Slow direct spherical harmonic transforms: the explicit-summation oracle.

These routines evaluate the synthesis sum and the analysis integral by
explicit summation over grid points and coefficients, from the
three-term Legendre recursion rather than the Wigner-d tables the
production plan is built from.  They cost ``O(L^2 * N_theta * N_phi)``
per field and are only ever run by the tests, at small band-limits.

The harmonics are the orthonormal complex ones,

.. math::

   Y_{\\ell,m}(\\theta, \\phi) = \\sqrt{\\frac{2\\ell+1}{4\\pi}
       \\frac{(\\ell-m)!}{(\\ell+m)!}} P_\\ell^m(\\cos\\theta) e^{i m \\phi},

with the Condon–Shortley phase in :math:`P_\\ell^m`; at ``phi = 0`` they
equal the fully normalised :math:`\\bar{P}_{\\ell m}(\\cos\\theta)` for
``m >= 0``, and ``Y_{l,-m}(theta, 0) = (-1)^m Y_{l,m}(theta, 0)``.

Two analysis methods are provided:

``"quadrature"``
    Longitude FFT followed by exact colatitude quadrature with the parity
    weights of :func:`colatitude_weights`.  Exact for band-limited fields
    when ``ntheta >= 2 * lmax`` (the integrand ``G_m * Y_{l,m}`` has
    colatitude Fourier degree up to ``2L - 2``).

``"lstsq"``
    Least-squares projection onto the synthesis operator.  Exact for
    band-limited fields on any grid supporting the band-limit, at the cost
    of building the dense ``(N_theta * N_phi) x L^2`` design matrix.
"""

from __future__ import annotations

import numpy as np

from repro.sht.grid import Grid
from repro.sht.quadrature import _exponential_sine_integral
from repro.sht.transform import (
    bandlimit_from_coeff_count,
    degrees_and_orders,
    _num_coeffs,
)

_INV_SQRT_4PI = 0.5 / np.sqrt(np.pi)


def legendre_normalized(lmax: int, x: np.ndarray) -> np.ndarray:
    """Fully normalised associated Legendre functions ``Pbar_{l,m}(x)``.

    Returns an array of shape ``(lmax + 1, lmax + 1) + x.shape`` whose
    entry ``[l, m]`` is :math:`\\bar{P}_{\\ell m}(x)` (zero for ``m > l``),
    normalised so that ``Pbar_{l,m}(cos theta) = Y_{l,m}(theta, 0)`` for
    ``m >= 0``.  Stable recursions: the sectoral band ``l == m``, then
    increasing degree at fixed order.
    """
    x = np.asarray(x, dtype=np.float64)
    if lmax < 0:
        raise ValueError("lmax must be non-negative")
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("Legendre argument must lie in [-1, 1]")
    x = np.clip(x, -1.0, 1.0)

    out = np.zeros((lmax + 1, lmax + 1) + x.shape, dtype=np.float64)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - x * x))

    # Sectoral seed: Pbar_{0,0} = 1/sqrt(4 pi).
    out[0, 0] = _INV_SQRT_4PI
    # Sectoral band l == m (includes the Condon-Shortley phase).
    for m in range(1, lmax + 1):
        out[m, m] = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_theta * out[m - 1, m - 1]

    # First off-sectoral band l == m + 1.
    for m in range(0, lmax):
        out[m + 1, m] = np.sqrt(2.0 * m + 3.0) * x * out[m, m]

    # General three-term recursion in degree for fixed order.
    for m in range(0, lmax + 1):
        for ell in range(m + 2, lmax + 1):
            a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = np.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
            out[ell, m] = a * (x * out[ell - 1, m] - b * out[ell - 2, m])
    return out


def ylm_theta0(lmax: int, theta: np.ndarray) -> np.ndarray:
    """``Y_{l,m}(theta, 0)`` for all degrees and orders.

    Shape ``(lmax + 1, 2 * lmax + 1) + theta.shape``, the order axis
    indexed by ``m + lmax``; entries with ``|m| > l`` are zero.
    """
    theta = np.asarray(theta, dtype=np.float64)
    pbar = legendre_normalized(lmax, np.cos(theta))
    out = np.zeros((lmax + 1, 2 * lmax + 1) + theta.shape, dtype=np.float64)
    for ell in range(lmax + 1):
        for m in range(0, ell + 1):
            out[ell, lmax + m] = pbar[ell, m]
            if m > 0:
                out[ell, lmax - m] = ((-1) ** m) * pbar[ell, m]
    return out


def ylm_matrix_theta0(lmax: int, theta: np.ndarray) -> np.ndarray:
    """``Y_{l,m}(theta, 0)`` flattened over the coefficient index.

    Shape ``(num_coeffs, theta.size)``; the first axis is the flat
    ``(l, m)`` index ``l*l + l + m`` of ``coeff_index``.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    full = ylm_theta0(lmax, theta)
    n = (lmax + 1) ** 2
    out = np.zeros((n, theta.size), dtype=np.float64)
    for ell in range(lmax + 1):
        for m in range(-ell, ell + 1):
            out[ell * ell + ell + m] = full[ell, lmax + m]
    return out


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
    ``ntheta - 2``.  In the analysis of order ``m`` both ``G_m`` and the
    band-limited extension of ``Y_{l,m}(theta, 0)`` carry a ``(-1)**m``
    reflection parity, so their product is reflection-even and
    ``parity=+1`` applies.
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


def synthesis_matrix(lmax: int, grid: Grid) -> np.ndarray:
    """Dense synthesis operator ``Y[(i, j), (l, m)] = Y_{l,m}(theta_i, phi_j)``.

    Returns a complex matrix of shape ``(ntheta * nphi, lmax**2)`` mapping a
    flat coefficient vector to a flattened grid field.
    """
    theta = grid.colatitudes
    phi = grid.longitudes
    ylm0 = ylm_matrix_theta0(lmax - 1, theta)  # (L^2, ntheta)
    ells, ms = degrees_and_orders(lmax)
    phase = np.exp(1j * ms[:, None] * phi[None, :])  # (L^2, nphi)
    # Y[(l,m), i, j] = ylm0[(l,m), i] * exp(i m phi_j)
    full = ylm0[:, :, None] * phase[:, None, :]
    return full.reshape(_num_coeffs(lmax), grid.npoints).T


def direct_inverse(coeffs: np.ndarray, grid: Grid, real: bool = True) -> np.ndarray:
    """Direct synthesis by explicit summation over coefficients.

    ``coeffs`` is ``(..., L**2)`` complex; a stacked ``(n_batch, L**2)``
    input is synthesised in a single dense matmul against the synthesis
    operator.  Returns ``(..., ntheta, nphi)`` fields (``float64`` when
    ``real``, else ``complex128``).
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    lmax = bandlimit_from_coeff_count(coeffs.shape[-1])
    mat = synthesis_matrix(lmax, grid)
    flat = coeffs @ mat.T
    field = flat.reshape(coeffs.shape[:-1] + grid.shape)
    return np.real(field) if real else field


def direct_forward(
    data: np.ndarray,
    lmax: int,
    grid: Grid | None = None,
    method: str = "quadrature",
) -> np.ndarray:
    """Direct analysis of grid field(s) ``(..., ntheta, nphi)`` into
    spectral coefficients, by ``"quadrature"`` (exact when
    ``ntheta >= 2*lmax``) or ``"lstsq"`` (exact for band-limited data on
    any supporting grid).  The grid is inferred from the trailing shape
    when omitted.
    """
    data = np.asarray(data)
    if grid is None:
        grid = Grid(ntheta=data.shape[-2], nphi=data.shape[-1])
    if data.shape[-2:] != grid.shape:
        raise ValueError("field shape does not match grid")

    if method == "lstsq":
        mat = synthesis_matrix(lmax, grid)
        flat = data.reshape(-1, grid.npoints).astype(np.complex128)
        sol, *_ = np.linalg.lstsq(mat, flat.T, rcond=None)
        return sol.T.reshape(data.shape[:-2] + (_num_coeffs(lmax),))

    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    nphi = grid.nphi
    if nphi < 2 * lmax - 1:
        raise ValueError("nphi too small for the requested band-limit")
    # Longitude integral via FFT: G_m(theta_i).
    spec = np.fft.fft(data, axis=-1) * (2.0 * np.pi / nphi)
    orders = np.arange(-(lmax - 1), lmax)
    bins = np.where(orders >= 0, orders, nphi + orders)
    g = spec[..., bins]  # (..., ntheta, 2L-1)

    ylm0 = ylm_matrix_theta0(lmax - 1, grid.colatitudes)  # (L^2, ntheta)
    ells, ms = degrees_and_orders(lmax)

    # The band-limited colatitude extensions of G_m and of Y_{l,m}(theta, 0)
    # both carry a (-1)**m reflection parity, so their product is always
    # reflection-even and the even-parity weights apply for every order.
    w = colatitude_weights(grid.ntheta, parity=+1)

    out = np.zeros(data.shape[:-2] + (_num_coeffs(lmax),), dtype=np.complex128)
    for idx in range(_num_coeffs(lmax)):
        m = ms[idx]
        g_m = g[..., lmax - 1 + m]  # (..., ntheta)
        integrand = g_m * ylm0[idx][..., :]
        out[..., idx] = np.sum(integrand * w, axis=-1)
    return out
