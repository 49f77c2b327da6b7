"""Spherical harmonic transform (SHT) substrate.

This subpackage implements the spherical-harmonic machinery used by the
climate emulator (paper Section III-A.1/III-A.2):

* :mod:`repro.sht.legendre` — normalised associated Legendre functions with
  stable three-term recursions (the ``Y_{l,m}(theta, 0)`` factors).
* :mod:`repro.sht.wigner` — Wigner small-d matrices evaluated at ``pi/2``
  (the ``Delta`` matrices), both an explicit reference implementation and a
  vectorised degree recursion used in production.
* :mod:`repro.sht.quadrature` — the exact integrals ``I(q)`` of Eq. (8) and
  colatitude quadrature weights derived from them.
* :mod:`repro.sht.grid` — equiangular latitude/longitude grids (ERA5-like)
  and the extended-colatitude construction of Eq. (6).
* :mod:`repro.sht.transform` — the fast forward and inverse transforms of
  Eqs. (4)-(8) for real fields: a longitude FFT or GEMM and one real
  GEMM per order ``m >= 0`` whose precomputed operator holds both the
  Wigner-d contraction and the cosine / sine transform along colatitude
  (Eq. 6's extension, folded), with an explicit precomputed plan.
* :mod:`repro.sht.direct` — slow direct transforms used for validation.
* :mod:`repro.sht.plancache` — the process-safe cache of precomputed plans
  shared by every model and campaign block in a process.
* :mod:`repro.sht.spectrum` — angular power spectra and spectral utilities.

Coefficients are stored in a flat complex vector of length ``L**2`` indexed
by ``idx = l*l + l + m`` for degree ``0 <= l < L`` and order ``-l <= m <= l``
(see :func:`repro.sht.transform.coeff_index`).
"""

from repro.sht.grid import Grid
from repro.sht.legendre import legendre_normalized, ylm_theta0
from repro.sht.quadrature import exponential_sine_integral, integral_matrix
from repro.sht.transform import (
    SHTPlan,
    coeff_index,
    coeff_lm,
    num_coeffs,
    sht_forward,
    sht_inverse,
)
from repro.sht.direct import direct_forward, direct_inverse
from repro.sht.backends import SHT_BACKENDS, DirectSHTPlan
from repro.sht.plancache import (
    clear_plan_cache,
    get_plan,
    plan_cache_key,
    plan_cache_stats,
)
from repro.sht.spectrum import angular_power_spectrum, spectrum_from_grid
from repro.sht.wigner import wigner_d_pi2, wigner_d_pi2_all, wigner_d_explicit

__all__ = [
    "DirectSHTPlan",
    "Grid",
    "SHTPlan",
    "SHT_BACKENDS",
    "angular_power_spectrum",
    "clear_plan_cache",
    "coeff_index",
    "coeff_lm",
    "direct_forward",
    "direct_inverse",
    "exponential_sine_integral",
    "get_plan",
    "integral_matrix",
    "legendre_normalized",
    "num_coeffs",
    "plan_cache_key",
    "plan_cache_stats",
    "sht_forward",
    "sht_inverse",
    "spectrum_from_grid",
    "wigner_d_explicit",
    "wigner_d_pi2",
    "wigner_d_pi2_all",
    "ylm_theta0",
]
