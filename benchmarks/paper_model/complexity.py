"""Emulator-design cost model (the landscape of paper Fig. 1).

Figure 1 of the paper situates the proposed emulator against the published
ones on a plane of spatial resolution versus computational cost, using the
scalings

* axially symmetric (longitude-stationary) designs: ``O(L^3 T + L^4)``;
* longitudinally anisotropic designs (this work):   ``O(L^4 T + L^6)``;

where ``T`` counts temporal data points and ``L`` parameterises the spatial
resolution.  The proposed emulator is anisotropic but reaches 3.5 km /
hourly resolution by moving the ``O(L^6)`` Cholesky to exascale machines —
a spatio-temporal resolution improvement of 28 x 8,760 = 245,280 over the
prior state of the art.  This module evaluates those cost curves, maps
resolutions to band-limits, and carries a small catalogue of the existing
emulators reviewed by the figure so the benchmark can regenerate the
landscape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sht.grid import resolution_to_bandlimit

KM_PER_DEGREE = 111.19

#: Record length, in years, a design's cost is priced for.
_RECORD_YEARS = 35.0


@dataclass(frozen=True)
class EmulatorDesignPoint:
    """One emulator design: spatial/temporal resolution and model class."""

    name: str
    spatial_resolution_km: float
    temporal_points_per_year: float
    axisymmetric: bool

    @property
    def spatial_resolution_deg(self) -> float:
        """Resolution in degrees at the equator."""
        return self.spatial_resolution_km / KM_PER_DEGREE

    @property
    def bandlimit(self) -> int:
        """Spherical-harmonic band-limit matching the spatial resolution."""
        return resolution_to_bandlimit(self.spatial_resolution_deg)

    def cost(self) -> float:
        """Design cost in floating-point operations for a 35-year record."""
        t = self.temporal_points_per_year * _RECORD_YEARS
        return design_cost(self.bandlimit, t, axisymmetric=self.axisymmetric)


#: Emulators reviewed in Fig. 1 (resolutions/temporal scales as reported in
#: the paper's Section II-A review; the comments are the paper's citation
#: numbers).
EXISTING_EMULATORS: tuple[EmulatorDesignPoint, ...] = (
    EmulatorDesignPoint("Castruccio & Stein 2013", 500.0, 1.0, True),  # [16]
    EmulatorDesignPoint("Castruccio et al. 2014", 250.0, 1.0, False),  # [17]
    EmulatorDesignPoint("Holden et al. 2015", 500.0, 1.0, False),  # [18]
    EmulatorDesignPoint("Link et al. 2019 (fldgen)", 250.0, 1.0, False),  # [19]
    EmulatorDesignPoint("Jeong et al. 2019", 200.0, 12.0, True),  # [21]
    EmulatorDesignPoint("Huang et al. 2023", 100.0, 12.0, True),  # [22]
    EmulatorDesignPoint("Song et al. 2024", 100.0, 365.0, True),  # [23]
)

#: The proposed emulator: 3.5 km, hourly, longitudinally anisotropic.
THIS_WORK = EmulatorDesignPoint("This work (exascale emulator)", 3.5, 8760.0, False)


def axisymmetric_cost(lmax: int, n_time: float) -> float:
    """Design cost of an axially symmetric emulator, ``O(L^3 T + L^4)``."""
    l = float(lmax)
    return l ** 3 * float(n_time) + l ** 4


def anisotropic_cost(lmax: int, n_time: float) -> float:
    """Design cost of a longitudinally anisotropic emulator, ``O(L^4 T + L^6)``."""
    l = float(lmax)
    return l ** 4 * float(n_time) + l ** 6


def design_cost(lmax: int, n_time: float, axisymmetric: bool) -> float:
    """Dispatch to the appropriate cost law."""
    return (
        axisymmetric_cost(lmax, n_time)
        if axisymmetric
        else anisotropic_cost(lmax, n_time)
    )


def resolution_factor() -> dict:
    """Spatio-temporal resolution improvement factors (the 245,280 figure).

    The paper compares :data:`THIS_WORK`'s 3.5 km hourly against the best
    published 100 km daily/annual emulators: 28x spatially and 8,760x
    temporally (hourly versus annual).
    """
    spatial = 100.0 / THIS_WORK.spatial_resolution_km
    temporal = THIS_WORK.temporal_points_per_year
    return {
        "spatial_factor": spatial,
        "temporal_factor": temporal,
        "combined_factor": spatial * temporal,
    }


def cost_landscape(
    resolutions_km: np.ndarray | list[float],
    n_years: float = 35.0,
    temporal_points_per_year: float = 365.0,
) -> dict:
    """Cost curves across spatial resolutions for both model classes.

    Returns a dict with the resolutions, matching band-limits, and the two
    cost curves in flops — the data behind Fig. 1's diagonal cost contours.
    """
    res = np.asarray(resolutions_km, dtype=np.float64)
    bandlimits = np.array(
        [resolution_to_bandlimit(r / KM_PER_DEGREE) for r in res], dtype=np.int64
    )
    t = n_years * temporal_points_per_year
    return {
        "resolution_km": res,
        "bandlimit": bandlimits,
        "axisymmetric_flops": np.array([axisymmetric_cost(l, t) for l in bandlimits]),
        "anisotropic_flops": np.array([anisotropic_cost(l, t) for l in bandlimits]),
        "n_time": t,
    }
