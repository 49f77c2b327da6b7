"""Configuration of the climate emulator."""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.linalg.policies import tile_codes
from repro.sht.plancache import _check_sht_method

__all__ = ["EmulatorConfig"]


@dataclass(frozen=True)
class EmulatorConfig:
    """Hyper-parameters of the emulator fit (paper Sections III-A, IV-A).

    Parameters
    ----------
    lmax:
        Spherical-harmonic band-limit ``L`` of the stochastic model.  The
        paper uses ``L = 720`` for native ERA5 and up to ``L = 5219`` for
        the upsampled experiments; offline reproductions use much smaller
        values.
    n_harmonics:
        Number ``K`` of periodic harmonics in the mean trend (the paper
        uses ``K = 5``).
    var_order:
        Order ``P`` of the diagonal vector autoregression on the spectral
        coefficients (the paper uses ``P = 3``).
    rho_grid:
        Candidate values of the distributed-lag decay ``rho`` profiled over
        during the per-location trend fit.
    tile_size:
        Tile edge length of the mixed-precision Cholesky factorisation of
        the innovation covariance.
    precision_variant:
        ``"DP"``, ``"DP/SP"``, ``"DP/SP/HP"`` or ``"DP/HP"``, in any case —
        the tile precision variant of the covariance factorisation
        (:data:`repro.linalg.policies.VARIANTS`).  Any other name is
        refused here, before a fit starts.
    sht_method:
        ``"fast"``, in any case: the paper's FFT + Wigner-d transform
        (Eqs. 4-8), the one transform there is.  Any other name is
        refused here, before a fit starts.
    covariance_jitter:
        Relative ridge added to the empirical covariance when
        ``R (T - P) < L^2`` leaves it rank deficient (paper Section
        III-A.3), and to stabilise aggressive precision variants.
    use_distributed_lag:
        Include the ``beta_2`` distributed-lag regressor; disabling it
        reduces the trend model to intercept + current forcing + harmonics
        (useful for short test records where the lag term is unidentified).
    """

    lmax: int = 16
    n_harmonics: int = 2
    var_order: int = 2
    rho_grid: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    tile_size: int = 32
    precision_variant: str = "DP"
    covariance_jitter: float = 1e-6
    use_distributed_lag: bool = True
    sht_method: str = "fast"

    def __post_init__(self) -> None:
        if self.lmax < 1:
            raise ValueError("lmax must be >= 1")
        if self.n_harmonics < 0:
            raise ValueError("n_harmonics must be >= 0")
        if self.var_order < 0:
            raise ValueError("var_order must be >= 0")
        if self.tile_size < 1:
            raise ValueError("tile_size must be >= 1")
        if not all(0.0 <= r < 1.0 for r in self.rho_grid):
            raise ValueError("rho values must lie in [0, 1)")
        tile_codes(self.precision_variant, 0)  # an unknown name raises, listing the four
        _check_sht_method(self.sht_method)

    @property
    def n_coeffs(self) -> int:
        """Size of the spectral state vector, ``L**2``."""
        return self.lmax * self.lmax

    def describe(self) -> dict:
        """A plain-dict summary (used by reports and examples)."""
        return {
            "lmax": self.lmax,
            "n_coeffs": self.n_coeffs,
            "n_harmonics": self.n_harmonics,
            "var_order": self.var_order,
            "tile_size": self.tile_size,
            "precision_variant": self.precision_variant,
            "covariance_jitter": self.covariance_jitter,
            "rho_grid": list(self.rho_grid),
            "use_distributed_lag": self.use_distributed_lag,
            "sht_method": self.sht_method,
        }

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-able dict from which :meth:`from_dict` rebuilds the config."""
        return self.describe()

    @classmethod
    def from_dict(cls, data: dict) -> "EmulatorConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Derived or unknown keys (e.g. ``n_coeffs``) are ignored so configs
        saved by newer builds with extra reporting fields still load.
        """
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in dict(data).items() if k in known}
        if "rho_grid" in kwargs:
            kwargs["rho_grid"] = tuple(float(r) for r in kwargs["rho_grid"])
        return cls(**kwargs)
