"""Equiangular latitude/longitude grids for global climate fields.

The emulator operates on ERA5-style regular latitude/longitude grids: the
colatitude :math:`\\theta_i = \\pi i / (N_\\theta - 1)` for
``i = 0 .. N_theta - 1`` (both poles included) and the longitude
:math:`\\phi_j = 2 \\pi j / N_\\phi` for ``j = 0 .. N_phi - 1``.  ERA5 at
0.25 degrees corresponds to ``N_theta = 721`` and ``N_phi = 1440`` with a
spherical-harmonic band-limit ``L = 720`` (paper Section IV-A).

The fast transform requires ``N_phi >= 2L - 1`` (aliasing-free longitude
FFT) and ``N_theta >= L + 1`` (aliasing-free extended-colatitude FFT);
:meth:`Grid.for_bandlimit` builds the smallest grid that satisfies both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "extended_colatitude_length", "resolution_to_bandlimit"]

EARTH_RADIUS_KM = 6371.0


def extended_colatitude_length(ntheta: int) -> int:
    """Number of points of the extended colatitude grid, ``2*N_theta - 2``."""
    if ntheta < 2:
        raise ValueError("ntheta must be >= 2")
    return 2 * ntheta - 2


def resolution_to_bandlimit(resolution_deg: float) -> int:
    """Spherical-harmonic band-limit corresponding to a grid spacing.

    A grid spacing of ``resolution_deg`` degrees along latitude resolves
    ``180 / resolution_deg`` intervals pole to pole; the matching band-limit
    is ``L = round(180 / resolution_deg)`` (e.g. 0.25 deg -> L = 720,
    0.034 deg -> L ~= 5294; the paper quotes L = 5219 for ~3.5 km).
    """
    if resolution_deg <= 0:
        raise ValueError("resolution must be positive")
    return int(round(180.0 / resolution_deg))


@dataclass(frozen=True)
class Grid:
    """An equiangular global latitude/longitude grid.

    Parameters
    ----------
    ntheta:
        Number of colatitude points (poles included).
    nphi:
        Number of longitude points (periodic, endpoint excluded).
    """

    ntheta: int
    nphi: int

    def __post_init__(self) -> None:
        if self.ntheta < 2:
            raise ValueError("ntheta must be >= 2")
        if self.nphi < 1:
            raise ValueError("nphi must be >= 1")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def for_bandlimit(cls, lmax: int, oversample: float = 1.0) -> "Grid":
        """Smallest grid supporting an exact transform at band-limit ``lmax``.

        ``oversample > 1`` multiplies both dimensions (useful when fitting
        data that is not exactly band-limited).
        """
        if lmax < 1:
            raise ValueError("lmax must be >= 1")
        ntheta = int(np.ceil((lmax + 1) * oversample))
        nphi = int(np.ceil((2 * lmax - 1) * oversample))
        return cls(ntheta=ntheta, nphi=nphi)

    @classmethod
    def era5(cls) -> "Grid":
        """The ERA5 0.25-degree grid used in the paper (721 x 1440)."""
        return cls(ntheta=721, nphi=1440)

    @classmethod
    def from_resolution(cls, resolution_deg: float) -> "Grid":
        """Grid matching a nominal resolution in degrees."""
        lmax = resolution_to_bandlimit(resolution_deg)
        return cls(ntheta=lmax + 1, nphi=2 * lmax)

    # ------------------------------------------------------------------ #
    # Coordinates
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape ``(ntheta, nphi)``."""
        return (self.ntheta, self.nphi)

    @property
    def npoints(self) -> int:
        """Total number of grid points."""
        return self.ntheta * self.nphi

    @property
    def colatitudes(self) -> np.ndarray:
        """Colatitude values ``theta_i`` in radians, ``0`` to ``pi``."""
        return np.linspace(0.0, np.pi, self.ntheta)

    @property
    def latitudes(self) -> np.ndarray:
        """Latitude values in degrees, ``+90`` (north pole) to ``-90``."""
        return 90.0 - np.degrees(self.colatitudes)

    @property
    def longitudes(self) -> np.ndarray:
        """Longitude values ``phi_j`` in radians, ``[0, 2*pi)``."""
        return 2.0 * np.pi * np.arange(self.nphi) / self.nphi

    @property
    def longitudes_deg(self) -> np.ndarray:
        """Longitude values in degrees, ``[0, 360)``."""
        return np.degrees(self.longitudes)

    @property
    def resolution_deg(self) -> float:
        """Nominal latitudinal grid spacing in degrees."""
        return 180.0 / (self.ntheta - 1)

    @property
    def resolution_km(self) -> float:
        """Nominal grid spacing in kilometres at the equator."""
        return np.deg2rad(self.resolution_deg) * EARTH_RADIUS_KM

    def max_bandlimit(self) -> int:
        """Largest band-limit this grid supports for the exact transform."""
        return min(self.ntheta - 1, (self.nphi + 1) // 2)

    def supports_bandlimit(self, lmax: int) -> bool:
        """Whether the exact fast transform at band-limit ``lmax`` applies."""
        return self.ntheta >= lmax + 1 and self.nphi >= 2 * lmax - 1

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of ``(theta, phi)`` with shape ``(ntheta, nphi)`` each."""
        return np.meshgrid(self.colatitudes, self.longitudes, indexing="ij")

    def cell_areas(self) -> np.ndarray:
        """Approximate solid angle of each cell (steradians), shape ``shape``.

        Rows at the poles receive the area of their half-band; the total sums
        to ``4*pi`` up to discretisation error and is used for area-weighted
        statistics.
        """
        theta = self.colatitudes
        edges = np.empty(self.ntheta + 1)
        edges[0] = 0.0
        edges[-1] = np.pi
        edges[1:-1] = 0.5 * (theta[:-1] + theta[1:])
        band = np.cos(edges[:-1]) - np.cos(edges[1:])  # integral of sin(theta)
        dphi = 2.0 * np.pi / self.nphi
        return np.repeat((band * dphi)[:, None], self.nphi, axis=1)

    def area_weights(self) -> np.ndarray:
        """Cell areas normalised to sum to one (for weighted averages)."""
        areas = self.cell_areas()
        return areas / areas.sum()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Grid(ntheta={self.ntheta}, nphi={self.nphi}, "
            f"resolution={self.resolution_deg:.4g} deg / {self.resolution_km:.4g} km)"
        )
