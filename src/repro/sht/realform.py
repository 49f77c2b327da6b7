"""Real-valued packing of spherical-harmonic coefficient vectors.

A real field has complex coefficients obeying the conjugate symmetry
``f_{l,-m} = (-1)^m conj(f_{l,m})``, i.e. exactly ``L^2`` real degrees of
freedom.  The emulator's temporal model (the VAR and the innovation
covariance ``U`` of Eq. 9) operates on the real vector ``f_t in R^{L^2}``;
this module provides the orthogonal change of basis between the complex
coefficient vector and that real vector:

* ``m = 0`` terms map to themselves (they are real);
* for ``m > 0`` the pair ``(f_{l,m}, f_{l,-m})`` maps to
  ``(sqrt(2) Re f_{l,m}, sqrt(2) Im f_{l,m})``.

The scaling keeps the transformation orthogonal, so Euclidean norms (and
therefore angular power spectra and Gaussian covariance structure) are
preserved between the two representations.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.sht.transform import bandlimit_from_coeff_count, degrees_and_orders

__all__ = ["real_from_complex", "complex_from_real", "real_basis_labels"]

_SQRT2 = np.sqrt(2.0)


@functools.lru_cache(maxsize=16)
def _tables(lmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the ``m = 0``, ``m > 0`` and mirrored ``-m`` entries,
    and ``(-1)**m`` for the ``m > 0`` ones (read-only: shared by every caller)."""
    _, ms = degrees_and_orders(lmax)
    index = np.arange(lmax * lmax)
    positive = ms > 0
    tables = (
        index[ms == 0], index[positive], index[positive] - 2 * ms[positive],
        (-1) ** ms[positive],
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def real_from_complex(coeffs: np.ndarray) -> np.ndarray:
    """Pack complex coefficient vector(s) into the real representation.

    Parameters
    ----------
    coeffs:
        Complex array of shape ``(..., L**2)`` with conjugate symmetry (the
        negative-order entries are ignored; only ``m >= 0`` is read).

    Returns
    -------
    numpy.ndarray
        Real array of shape ``(..., L**2)``.
    """
    coeffs = np.asarray(coeffs)
    lmax = bandlimit_from_coeff_count(coeffs.shape[-1])
    zero, pos, neg, _ = _tables(lmax)
    out = np.empty(coeffs.shape[:-1] + (lmax * lmax,), dtype=np.float64)
    out[..., zero] = coeffs[..., zero].real
    c = coeffs[..., pos]
    out[..., pos] = _SQRT2 * c.real
    out[..., neg] = _SQRT2 * c.imag
    return out


def complex_from_real(real_coeffs: np.ndarray) -> np.ndarray:
    """Unpack the real representation back into complex coefficients.

    The conjugate symmetry is restored explicitly, so synthesising the
    result always yields a real field.
    """
    real_coeffs = np.asarray(real_coeffs, dtype=np.float64)
    lmax = bandlimit_from_coeff_count(real_coeffs.shape[-1])
    zero, pos, neg, sign = _tables(lmax)
    out = np.empty(real_coeffs.shape[:-1] + (lmax * lmax,), dtype=np.complex128)
    out[..., zero] = real_coeffs[..., zero]
    value = real_coeffs[..., pos] / _SQRT2 + 1j * (real_coeffs[..., neg] / _SQRT2)
    out[..., pos] = value
    out[..., neg] = sign * np.conj(value)
    return out


def real_basis_labels(lmax: int) -> list[str]:
    """Human-readable labels of the real-basis components (for reports)."""
    ells, ms = degrees_and_orders(lmax)
    labels = []
    for ell, m in zip(ells, ms):
        if m == 0:
            labels.append(f"l={ell} m=0")
        elif m > 0:
            labels.append(f"l={ell} m={m} (re)")
        else:
            labels.append(f"l={ell} m={-m} (im)")
    return labels
