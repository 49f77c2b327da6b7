"""The spatially varying scale field ``sigma(theta, phi)`` of Eq. (1).

After removing the mean trend, the residual variance still varies strongly
in space (land versus ocean, tropics versus poles).  The emulator therefore
standardises the residuals by a per-location scale before the spectral
modelling, and multiplies it back in when generating emulations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ScaleField"]


@dataclass
class ScaleField:
    """Per-location standard deviation of the detrended residuals.

    Parameters
    ----------
    sigma:
        Scale field with the spatial grid shape; values are floored at
        ``floor`` to keep the standardisation well defined over regions
        with (near) zero residual variance.
    """

    sigma: np.ndarray
    floor: float = 1e-8

    def __post_init__(self) -> None:
        self.sigma = np.maximum(np.asarray(self.sigma, dtype=np.float64), self.floor)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_residuals(cls, residuals: np.ndarray, floor: float = 1e-8) -> "ScaleField":
        """Estimate the scale from residual fields ``(R, T, ntheta, nphi)``.

        The estimator pools ensemble members and time steps, matching the
        paper's assumption that ``sigma`` is shared across ensembles.
        """
        residuals = np.asarray(residuals, dtype=np.float64)
        if residuals.ndim == 3:
            residuals = residuals[None, ...]
        if residuals.ndim != 4:
            raise ValueError("residuals must have shape (R, T, ntheta, nphi)")
        sigma = residuals.std(axis=(0, 1), ddof=1)
        return cls(sigma=sigma, floor=floor)

    # ------------------------------------------------------------------ #
    def standardize(self, residuals: np.ndarray) -> np.ndarray:
        """Divide residual fields by the scale (broadcast over leading axes)."""
        return np.asarray(residuals, dtype=np.float64) / self.sigma

    @property
    def shape(self) -> tuple[int, ...]:
        """Spatial shape of the field."""
        return self.sigma.shape

    def summary(self) -> dict:
        """Min / mean / max of the scale field (reporting helper)."""
        return {
            "min": float(self.sigma.min()),
            "mean": float(self.sigma.mean()),
            "max": float(self.sigma.max()),
        }

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Arrays and metadata from which :meth:`from_state` rebuilds the field."""
        return {
            "sigma": np.asarray(self.sigma, dtype=np.float64),
            "floor": float(self.floor),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ScaleField":
        """Rebuild a scale field from :meth:`state_dict` output."""
        return cls(
            sigma=np.asarray(state["sigma"], dtype=np.float64),
            floor=float(state["floor"]),
        )
