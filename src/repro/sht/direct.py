"""Slow direct spherical harmonic transforms (validation reference).

These routines evaluate the synthesis sum and the analysis integral by
explicit summation over grid points and coefficients.  They cost
``O(L^2 * N_theta * N_phi)`` per field and exist purely to validate the fast
FFT/Wigner transform of :mod:`repro.sht.transform`; they are exercised in
the test-suite at small band-limits.

Two analysis methods are provided:

``"quadrature"``
    Longitude FFT followed by exact colatitude quadrature with the parity
    weights of :func:`repro.sht.quadrature.colatitude_weights`.  Exact for
    band-limited fields when ``ntheta >= 2 * lmax`` (the integrand
    ``G_m * Y_{l,m}`` has colatitude Fourier degree up to ``2L - 2``).

``"lstsq"``
    Least-squares projection onto the synthesis operator.  Exact for
    band-limited fields on any grid supporting the band-limit, at the cost
    of building the dense ``(N_theta * N_phi) x L^2`` design matrix.
"""

from __future__ import annotations

import numpy as np

from repro.sht.grid import Grid
from repro.sht.legendre import ylm_matrix_theta0
from repro.sht.quadrature import colatitude_weights
from repro.sht.transform import (
    bandlimit_from_coeff_count,
    degrees_and_orders,
    _num_coeffs,
)

__all__ = ["synthesis_matrix", "direct_forward", "direct_inverse"]


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
    operator, independently per leading slice (bit-identical to
    transforming each slice alone).  Returns ``(..., ntheta, nphi)``
    fields (``float64`` when ``real``, else ``complex128``).
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
    """Direct analysis of grid field(s) into spectral coefficients.

    Parameters
    ----------
    data:
        Field(s) of shape ``(..., ntheta, nphi)``.
    lmax:
        Band-limit.
    grid:
        Grid; inferred from the trailing shape when omitted.
    method:
        ``"quadrature"`` (exact when ``ntheta >= 2*lmax``) or ``"lstsq"``
        (exact for band-limited data on any supporting grid).
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
