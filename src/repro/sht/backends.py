"""Named spherical-harmonic-transform backends.

The spectral stochastic model needs one thing from the SHT layer: a *plan*
object exposing ``forward(fields) -> coeffs``, ``inverse(coeffs) -> fields``
and ``inverse_realform(series) -> fields`` at a fixed band-limit and grid.  Two implementations exist — the
production FFT/Wigner plan of :mod:`repro.sht.transform` and the explicit
summation reference of :mod:`repro.sht.direct` — and this module makes them
interchangeable through the shared :class:`~repro.util.registry.BackendRegistry`
mechanism:

* ``"fast"`` — :class:`~repro.sht.transform.SHTPlan`,
  ``O(L^3 + L^2 log L)`` per slice (the paper's transform);
* ``"direct"`` — longitude FFT + exact colatitude quadrature,
  ``O(L^2 N_theta N_phi)`` (exact for band-limited fields when
  ``ntheta >= 2*lmax``);
* ``"direct-lstsq"`` — least-squares projection onto the dense synthesis
  operator (exact on any supporting grid, dense-matrix cost).

New backends register with ``SHT_BACKENDS.register(name, factory)`` where
``factory(lmax=..., grid=...)`` returns a plan-compatible object; the name
then works everywhere an SHT method is selected (notably
``EmulatorConfig.sht_method``) with no changes to the consumers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sht.direct import direct_forward, direct_inverse
from repro.sht.grid import Grid
from repro.sht.realform import complex_from_real
from repro.sht.transform import SHTPlan, num_coeffs
from repro.util.registry import BackendRegistry

__all__ = ["SHT_BACKENDS", "DirectSHTPlan"]


@dataclass
class DirectSHTPlan:
    """Plan-compatible wrapper around the direct (reference) transforms.

    Parameters
    ----------
    lmax:
        Band-limit ``L``.
    grid:
        Equiangular grid; must support the band-limit.
    method:
        Analysis method: ``"quadrature"`` (exact for band-limited fields
        when ``ntheta >= 2*lmax``) or ``"lstsq"`` (exact on any supporting
        grid).
    """

    lmax: int
    grid: Grid
    method: str = "quadrature"

    def __post_init__(self) -> None:
        if self.lmax < 1:
            raise ValueError("lmax must be >= 1")
        if not self.grid.supports_bandlimit(self.lmax):
            raise ValueError(
                f"grid {self.grid.shape} cannot support band-limit {self.lmax}"
            )
        if self.method not in ("quadrature", "lstsq"):
            raise ValueError(f"unknown direct analysis method {self.method!r}")

    @property
    def n_coeffs(self) -> int:
        """Length of the coefficient vector, ``L**2``."""
        return num_coeffs(self.lmax)

    def forward(self, data: np.ndarray) -> np.ndarray:
        """Analysis: field(s) ``(..., ntheta, nphi)`` to coefficients."""
        return direct_forward(np.asarray(data), self.lmax, self.grid, method=self.method)

    def inverse(self, coeffs: np.ndarray, real: bool = True) -> np.ndarray:
        """Synthesis: coefficients ``(..., L**2)`` to field(s).

        Stacked ``(n_batch, L**2)`` inputs are synthesised in one dense
        matmul pass with per-slice bit-identical results, matching the
        batched contract of :meth:`SHTPlan.inverse
        <repro.sht.transform.SHTPlan.inverse>`.
        """
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape[-1] != self.n_coeffs:
            raise ValueError(
                f"expected {self.n_coeffs} coefficients, got {coeffs.shape[-1]}"
            )
        return direct_inverse(coeffs, self.grid, real=real)

    def inverse_realform(self, series: np.ndarray) -> np.ndarray:
        """Synthesis from the real packing of :mod:`repro.sht.realform`."""
        return self.inverse(complex_from_real(series))


#: Registry of SHT implementations selectable by name (see module docstring).
SHT_BACKENDS = BackendRegistry("SHT backend", doc_hint="docs/api.md#sht-backends")

SHT_BACKENDS.register(
    "fast",
    lambda lmax, grid: SHTPlan(lmax=lmax, grid=grid),
    description=(
        "FFT + Wigner-d fast transform, O(L^3 + L^2 log L) per slice "
        "(paper Eqs. 4-8)"
    ),
    aliases=("fft",),
)
SHT_BACKENDS.register(
    "direct",
    lambda lmax, grid: DirectSHTPlan(lmax=lmax, grid=grid, method="quadrature"),
    description=(
        "explicit-summation reference with exact colatitude quadrature, "
        "O(L^2 Ntheta Nphi) per slice"
    ),
    aliases=("direct-quadrature",),
)
SHT_BACKENDS.register(
    "direct-lstsq",
    lambda lmax, grid: DirectSHTPlan(lmax=lmax, grid=grid, method="lstsq"),
    description=(
        "least-squares projection onto the dense synthesis operator "
        "(exact on any supporting grid)"
    ),
)
