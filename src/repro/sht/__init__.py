"""Spherical harmonic transform (SHT) substrate.

This subpackage implements the one spherical-harmonic transform the
climate emulator uses, the FFT + Wigner-d plan of paper Section III-A.2
(Eqs. 4-8), for real fields:

* :mod:`repro.sht.wigner` — the ``m', m >= 0`` quadrants of the Wigner
  small-d matrices at ``pi/2`` (the ``Delta`` matrices) by a vectorised
  degree recursion.
* :mod:`repro.sht.quadrature` — the exact integrals ``I(q)`` of Eq. (8).
* :mod:`repro.sht.grid` — equiangular latitude/longitude grids (ERA5-like)
  and the extended-colatitude construction of Eq. (6).
* :mod:`repro.sht.transform` — the forward and inverse transforms: a
  longitude FFT or GEMM and one real GEMM per order ``m >= 0`` whose
  precomputed operator holds both the Wigner-d contraction and the
  cosine / sine transform along colatitude (Eq. 6's extension, folded),
  with an explicit precomputed plan.
* :mod:`repro.sht.plancache` — the process-safe cache of precomputed plans
  shared by every model and campaign block in a process.
* :mod:`repro.sht.realform` — the real packing of the coefficients.
* :mod:`repro.sht.spectrum` — angular power spectra and spectral utilities.

The slow explicit-summation transforms and the Legendre recursion the
plan is checked against live with the tests (``tests/sht/``).

Coefficients are stored in a flat complex vector of length ``L**2`` indexed
by ``idx = l*l + l + m`` for degree ``0 <= l < L`` and order ``-l <= m <= l``
(see :func:`repro.sht.transform.coeff_index`).
"""

from repro.sht.grid import Grid
from repro.sht.transform import SHTPlan
from repro.sht.plancache import clear_plan_cache, get_plan, plan_cache_stats
from repro.sht.realform import complex_from_real
from repro.sht.spectrum import spectrum_from_grid

__all__ = [
    "Grid",
    "SHTPlan",
    "clear_plan_cache",
    "complex_from_real",
    "get_plan",
    "plan_cache_stats",
    "spectrum_from_grid",
]
