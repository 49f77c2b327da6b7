"""Synthetic ERA5-like surface-temperature ensemble generator.

The generator produces global 2-metre-temperature fields with the
statistical ingredients the emulator is designed to capture (and that ERA5
exhibits): a latitude-dependent climatology with land/sea contrast, a
forced warming trend whose sensitivity is amplified over land and at high
latitudes, seasonal (and optionally diurnal) cycles whose phase flips
between hemispheres, a spatially varying noise scale, and spatially
correlated anisotropic stochastic variability built from a red angular
power spectrum with autoregressive temporal memory.

Because the generative model has exactly the structure of Eq. (1)-(2), the
test-suite can verify that the emulator recovers the prescribed trend
coefficients, seasonal amplitudes, scale field and temporal correlation —
a ground-truth check that real reanalysis data cannot provide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.ensemble import ClimateEnsemble
from repro.data.landsea import land_fraction
from repro.sht.grid import Grid
from repro.sht.spectrum import red_spectrum
from repro.sht.transform import SHTPlan

__all__ = ["Era5LikeConfig", "Era5LikeGenerator"]


@dataclass(frozen=True)
class Era5LikeConfig:
    """Configuration of the synthetic ERA5-like generator.

    Parameters
    ----------
    lmax:
        Band-limit of the stochastic component (controls spatial detail).
    n_years:
        Number of simulated years.
    steps_per_year:
        Temporal resolution ``tau`` (365 = daily, 8760 = hourly; tests use
        small synthetic values such as 24 or 36).
    n_ensemble:
        Number of ensemble members ``R``.
    grid:
        Spatial grid; the minimal grid for ``lmax`` when omitted.
    base_temperature_k / equator_pole_contrast_k:
        Climatology: pole temperature and equator-to-pole contrast.
    climate_sensitivity / polar_amplification / land_sensitivity:
        Warming per W m^-2 and its latitudinal/land amplification (the
        ``beta_1`` field of Eq. 2).
    seasonal_amplitude_k / land_seasonal_boost_k:
        Seasonal-cycle amplitude over ocean and its enhancement over land.
    diurnal_amplitude_k:
        Amplitude of a diurnal harmonic (only meaningful for hourly-like
        ``steps_per_year``; set to zero to disable).
    noise_scale_k / land_noise_boost_k / polar_noise_boost_k:
        The ``sigma(theta, phi)`` field of Eq. (1).
    spectrum_slope:
        Slope of the red angular spectrum of the stochastic component.
    ar_coefficient:
        Lag-one autoregressive coefficient of the spectral coefficients.
    nugget_std:
        Standard deviation of the white measurement-like residual
        ``epsilon`` added on the grid.
    """

    lmax: int = 16
    n_years: int = 4
    steps_per_year: int = 36
    n_ensemble: int = 2
    grid: Grid | None = None
    start_year: int = 1940
    forcing_growth: float = 0.035
    base_temperature_k: float = 250.0
    equator_pole_contrast_k: float = 48.0
    land_offset_k: float = 3.0
    climate_sensitivity: float = 0.35
    polar_amplification: float = 0.55
    land_sensitivity: float = 0.2
    seasonal_amplitude_k: float = 6.0
    land_seasonal_boost_k: float = 14.0
    n_harmonics: int = 2
    diurnal_amplitude_k: float = 0.0
    noise_scale_k: float = 1.2
    land_noise_boost_k: float = 1.5
    polar_noise_boost_k: float = 1.0
    spectrum_slope: float = -2.2
    ar_coefficient: float = 0.6
    nugget_std: float = 0.05

    def resolved_grid(self) -> Grid:
        """The grid used by the generator."""
        return self.grid if self.grid is not None else Grid.for_bandlimit(self.lmax)

    @property
    def n_times(self) -> int:
        """Total number of time steps."""
        return self.n_years * self.steps_per_year


class Era5LikeGenerator:
    """Generate synthetic ERA5-like temperature ensembles.

    Parameters
    ----------
    config:
        Generator configuration.
    seed:
        Seed of the underlying random generator.
    """

    def __init__(self, config: Era5LikeConfig | None = None, seed: int = 0) -> None:
        self.config = config or Era5LikeConfig()
        self.seed = seed
        self._grid = self.config.resolved_grid()
        self._plan = SHTPlan(lmax=self.config.lmax, grid=self._grid)
        self._land = land_fraction(self._grid)
        theta, _ = self._grid.mesh()
        self._theta = theta

    # ------------------------------------------------------------------ #
    # Deterministic ingredient fields (ground truth for the tests)
    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> Grid:
        """The spatial grid."""
        return self._grid

    @property
    def land(self) -> np.ndarray:
        """Land fraction field."""
        return self._land

    def climatology(self) -> np.ndarray:
        """The intercept field ``beta_0`` (Kelvin)."""
        cfg = self.config
        return (
            cfg.base_temperature_k
            + cfg.equator_pole_contrast_k * np.sin(self._theta)
            + cfg.land_offset_k * (self._land - 0.5)
        )

    def sensitivity(self) -> np.ndarray:
        """The forcing-response field ``beta_1`` (Kelvin per W m^-2)."""
        cfg = self.config
        return (
            cfg.climate_sensitivity
            + cfg.polar_amplification * np.cos(self._theta) ** 2
            + cfg.land_sensitivity * self._land
        )

    def seasonal_amplitude(self) -> np.ndarray:
        """Amplitude of the annual harmonic (hemisphere-antisymmetric)."""
        cfg = self.config
        return (cfg.seasonal_amplitude_k + cfg.land_seasonal_boost_k * self._land) * np.cos(
            self._theta
        )

    def noise_scale(self) -> np.ndarray:
        """The scale field ``sigma(theta, phi)`` (Kelvin)."""
        cfg = self.config
        return (
            cfg.noise_scale_k
            + cfg.land_noise_boost_k * self._land
            + cfg.polar_noise_boost_k * np.cos(self._theta) ** 2
        )

    def mean_field(self, forcing_per_step: np.ndarray) -> np.ndarray:
        """Deterministic component ``m_t`` for every time step.

        Returns an array of shape ``(T, ntheta, nphi)``.
        """
        cfg = self.config
        t = np.arange(len(forcing_per_step), dtype=np.float64)
        phase = 2.0 * np.pi * t / cfg.steps_per_year
        seasonal = (
            self.seasonal_amplitude()[None, :, :]
            * np.cos(phase)[:, None, None]
        )
        if cfg.n_harmonics > 1:
            seasonal = seasonal + (
                0.25
                * self.seasonal_amplitude()[None, :, :]
                * np.sin(2.0 * phase)[:, None, None]
            )
        diurnal = 0.0
        if cfg.diurnal_amplitude_k > 0:
            diurnal = (
                cfg.diurnal_amplitude_k
                * self._land[None, :, :]
                * np.cos(2.0 * np.pi * t * (cfg.steps_per_year / 365.0) )[:, None, None]
            )
        trend = self.sensitivity()[None, :, :] * forcing_per_step[:, None, None]
        return self.climatology()[None, :, :] + trend + seasonal + diurnal

    # ------------------------------------------------------------------ #
    # Stochastic component
    # ------------------------------------------------------------------ #
    def stochastic_component(self, n_times: int, rng: np.random.Generator) -> np.ndarray:
        """AR(1)-in-time, red-spectrum-in-space stochastic field ``Z_t``.

        The field is scaled to roughly unit point variance so the spatial
        structure of the final variance is carried by ``sigma``.
        """
        cfg = self.config
        power = red_spectrum(cfg.lmax, slope=cfg.spectrum_slope)
        phi = cfg.ar_coefficient
        innov_scale = np.sqrt(max(1.0 - phi ** 2, 1e-12))

        coeffs = np.zeros((n_times, self._plan.n_coeffs), dtype=np.complex128)
        state = self._plan.random_coefficients(rng, power=power)
        coeffs[0] = state
        for t in range(1, n_times):
            innovation = self._plan.random_coefficients(rng, power=power)
            state = phi * state + innov_scale * innovation
            coeffs[t] = state
        fields = self._plan.inverse(coeffs)
        # Normalise to unit variance over space-time (approximately).
        std = float(np.std(fields)) or 1.0
        fields = fields / std
        if cfg.nugget_std > 0:
            fields = fields + cfg.nugget_std * rng.standard_normal(fields.shape)
        return fields

    # ------------------------------------------------------------------ #
    # Ensemble generation
    # ------------------------------------------------------------------ #
    def generate(self, dtype: np.dtype | str = np.float64) -> ClimateEnsemble:
        """Generate the full ensemble described by the configuration."""
        # The scenario layer sits above data; importing inside the body is
        # the layering rule's sanctioned upward reference.
        from repro.scenarios.components import historical_pathway
        from repro.scenarios.spec import ScenarioSpec

        cfg = self.config
        rng = np.random.default_rng(self.seed)
        forcing = ScenarioSpec(
            "historical", historical_pathway(growth=cfg.forcing_growth)
        ).annual_forcing(cfg.n_years)
        forcing_per_step = np.repeat(forcing, cfg.steps_per_year)

        mean = self.mean_field(forcing_per_step)
        sigma = self.noise_scale()

        data = np.empty(
            (cfg.n_ensemble, cfg.n_times) + self._grid.shape, dtype=np.dtype(dtype)
        )
        for r in range(cfg.n_ensemble):
            z = self.stochastic_component(cfg.n_times, rng)
            data[r] = mean + sigma[None, :, :] * z

        return ClimateEnsemble(
            data=data,
            grid=self._grid,
            forcing_annual=forcing,
            steps_per_year=cfg.steps_per_year,
            start_year=cfg.start_year,
            metadata={
                "generator": "era5-like",
                "lmax": cfg.lmax,
                "seed": self.seed,
            },
        )
