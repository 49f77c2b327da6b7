"""The end-to-end climate emulator API.

:class:`ClimateEmulator` ties the pieces together exactly as the paper's
pipeline (Fig. 3) does:

1. fit the per-location distributed-lag mean trend against the radiative
   forcing (Eq. 2),
2. estimate the per-location scale ``sigma`` and standardise the residuals,
3. transform the standardised residuals to the spherical-harmonic domain,
   fit the diagonal VAR(P), estimate the innovation covariance ``U``
   (Eq. 9) and factorise it with the mixed-precision tile Cholesky,
4. generate emulations by sampling the spectral model and undoing the
   standardisation and the trend removal (Eq. 1).

The emulator also reports its own parameter footprint, which is the basis
of the "saving petabytes" storage analysis, and serialises to a versioned
:class:`~repro.api.artifact.EmulatorArtifact` via :meth:`ClimateEmulator.save`
/ :meth:`ClimateEmulator.load` — the persisted parameters are all that is
needed to regenerate statistically consistent ensembles, so the raw
training archive can be discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.config import EmulatorConfig
from repro.core.generator import EmulationGenerator, _member_rngs
from repro.core.scale import ScaleField
from repro.core.spectral_model import SpectralStochasticModel
from repro.core.trend import MeanTrendModel, TrendFit
from repro.data.ensemble import ClimateEnsemble
from repro.obs import span
from repro.sht.grid import Grid

if TYPE_CHECKING:  # pragma: no cover - typing only
    import os

    from repro.api.artifact import EmulatorArtifact
    from repro.scenarios.spec import ScenarioSpec

__all__ = ["ClimateEmulator", "EmulatorConfig", "TrainingSummary"]


@dataclass(frozen=True)
class TrainingSummary:
    """What the emulator remembers about its training data.

    A fitted emulator must be usable *without* the raw ensemble (that is
    the whole point of the artifact story), so everything the emulation and
    reporting paths need — coordinates, calendar, the training forcing used
    for in-sample emulation defaults, and the raw-archive byte counts the
    storage comparison quotes — is captured here at fit time and serialised
    with the artifact.
    """

    grid: Grid
    steps_per_year: int
    start_year: int
    n_times: int
    n_ensemble: int
    forcing_annual: np.ndarray

    @classmethod
    def from_ensemble(cls, ensemble: ClimateEnsemble) -> "TrainingSummary":
        """Summarise a training ensemble."""
        return cls(
            grid=ensemble.grid,
            steps_per_year=ensemble.steps_per_year,
            start_year=ensemble.start_year,
            n_times=ensemble.n_times,
            n_ensemble=ensemble.n_ensemble,
            forcing_annual=np.asarray(ensemble.forcing_annual, dtype=np.float64),
        )

    @property
    def n_data_points(self) -> int:
        """Raw data points ``R * T * N_theta * N_phi`` of the training set."""
        return self.n_ensemble * self.n_times * self.grid.npoints

    def raw_bytes(self, dtype: np.dtype | str = np.float32) -> int:
        """Bytes of the raw training archive at a given element type."""
        return self.n_data_points * np.dtype(dtype).itemsize

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Arrays and metadata from which :meth:`from_state` rebuilds the summary."""
        return {
            "grid": {"ntheta": int(self.grid.ntheta), "nphi": int(self.grid.nphi)},
            "steps_per_year": int(self.steps_per_year),
            "start_year": int(self.start_year),
            "n_times": int(self.n_times),
            "n_ensemble": int(self.n_ensemble),
            "forcing_annual": np.asarray(self.forcing_annual, dtype=np.float64),
        }

    @classmethod
    def from_state(cls, state: dict) -> "TrainingSummary":
        """Rebuild a summary from :meth:`state_dict` output."""
        return cls(
            grid=Grid(ntheta=int(state["grid"]["ntheta"]), nphi=int(state["grid"]["nphi"])),
            steps_per_year=int(state["steps_per_year"]),
            start_year=int(state["start_year"]),
            n_times=int(state["n_times"]),
            n_ensemble=int(state["n_ensemble"]),
            forcing_annual=np.asarray(state["forcing_annual"], dtype=np.float64),
        )


@dataclass
class ClimateEmulator:
    """Spherical-harmonic stochastic climate emulator.

    Parameters
    ----------
    config:
        Emulator hyper-parameters; a default small configuration is used
        when omitted.

    Examples
    --------
    >>> from repro.core import ClimateEmulator, EmulatorConfig
    >>> from repro.data import Era5LikeConfig, Era5LikeGenerator
    >>> sims = Era5LikeGenerator(Era5LikeConfig(lmax=8, n_years=3,
    ...     steps_per_year=12, n_ensemble=2), seed=1).generate()
    >>> emulator = ClimateEmulator(EmulatorConfig(lmax=8, var_order=1,
    ...     n_harmonics=1, tile_size=16))
    >>> emulator.fit(sims)                                   # doctest: +ELLIPSIS
    ClimateEmulator(...)
    >>> emulations = emulator.emulate(n_realizations=1)
    >>> emulations.data.shape[2:] == sims.grid.shape
    True
    """

    config: EmulatorConfig = field(default_factory=EmulatorConfig)

    trend_model: MeanTrendModel | None = field(init=False, default=None, repr=False)
    trend_fit: TrendFit | None = field(init=False, default=None, repr=False)
    scale: ScaleField | None = field(init=False, default=None, repr=False)
    spectral_model: SpectralStochasticModel | None = field(init=False, default=None, repr=False)
    training: ClimateEnsemble | None = field(init=False, default=None, repr=False)
    training_summary: TrainingSummary | None = field(init=False, default=None, repr=False)
    _artifact_nbytes: int | None = field(init=False, default=None, repr=False)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, ensemble: ClimateEnsemble) -> "ClimateEmulator":
        """Train the emulator on a simulation ensemble.

        Parameters
        ----------
        ensemble:
            Training ensemble; ``ensemble.data`` has shape
            ``(R, T, ntheta, nphi)``.
        """
        cfg = self.config
        if not ensemble.grid.supports_bandlimit(cfg.lmax):
            raise ValueError(
                f"grid {ensemble.grid.shape} cannot support band-limit {cfg.lmax}"
            )
        self.training = ensemble
        self.training_summary = TrainingSummary.from_ensemble(ensemble)
        self._artifact_nbytes = None

        self.trend_model = MeanTrendModel(
            steps_per_year=ensemble.steps_per_year,
            n_harmonics=cfg.n_harmonics,
            rho_grid=cfg.rho_grid,
            use_distributed_lag=cfg.use_distributed_lag,
        )
        with span("fit.trend", bytes=ensemble.data.nbytes):
            self.trend_fit = self.trend_model.fit(
                ensemble.data, ensemble.forcing_annual
            )
            residuals = self.trend_model.residuals(
                ensemble.data, ensemble.forcing_annual, self.trend_fit
            )

        with span("fit.scale"):
            self.scale = ScaleField.from_residuals(residuals)
            standardized = self.scale.standardize(residuals)
        del residuals

        self.spectral_model = SpectralStochasticModel(
            lmax=cfg.lmax,
            grid=ensemble.grid,
            var_order=cfg.var_order,
            tile_size=cfg.tile_size,
            precision_variant=cfg.precision_variant,
            covariance_jitter=cfg.covariance_jitter,
            sht_method=cfg.sht_method,
        )
        with span("fit.spectral", lmax=cfg.lmax, var_order=cfg.var_order):
            self.spectral_model.fit(standardized)
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed (or a fitted state was loaded)."""
        return self.spectral_model is not None and self.spectral_model.cholesky is not None

    def _require_fit(self) -> None:
        if not self.is_fitted or self.training_summary is None:
            raise RuntimeError("the emulator must be fitted before use")

    def _resolve_emulation_args(
        self, n_times: int | None, annual_forcing
    ) -> tuple[int, np.ndarray]:
        """Validated ``(n_times, forcing)`` with training defaults applied.

        ``annual_forcing`` may be a raw annual array, a registered
        scenario name, or a :class:`~repro.scenarios.spec.ScenarioSpec`;
        specs and names are materialised over exactly the years the
        emulation spans.
        """
        # Imported lazily: the scenario engine sits above the core layer,
        # so the core must not depend on it at import time.
        from repro.scenarios.registry import resolve_scenario
        from repro.scenarios.spec import ScenarioSpec

        assert self.training_summary is not None
        if n_times is None:
            n_times = self.training_summary.n_times
        n_times = int(n_times)
        if n_times < 1:
            raise ValueError(f"n_times must be >= 1, got {n_times}")
        if annual_forcing is None:
            forcing = self.training_summary.forcing_annual
        elif isinstance(annual_forcing, (str, ScenarioSpec)):
            spec = resolve_scenario(annual_forcing)
            n_years = -(-n_times // self.training_summary.steps_per_year)
            forcing = spec.annual_forcing(n_years)
        else:
            forcing = np.asarray(annual_forcing, dtype=np.float64)
        return n_times, forcing

    # ------------------------------------------------------------------ #
    # Emulation
    # ------------------------------------------------------------------ #
    def generator(self) -> EmulationGenerator:
        """The emulation generator built from the fitted components."""
        self._require_fit()
        assert self.training_summary is not None
        return EmulationGenerator(
            trend_model=self.trend_model,
            trend_fit=self.trend_fit,
            scale=self.scale,
            spectral_model=self.spectral_model,
            grid=self.training_summary.grid,
            steps_per_year=self.training_summary.steps_per_year,
        )

    def emulate(
        self,
        n_realizations: int = 1,
        n_times: int | None = None,
        annual_forcing: "np.ndarray | str | ScenarioSpec | None" = None,
        rng: "int | np.random.Generator | None" = None,
        include_nugget: bool = True,
    ) -> ClimateEnsemble:
        """Generate emulations statistically consistent with the training data.

        The concatenated :meth:`emulate_stream`: member ``r`` is
        bit-identical to realization ``r`` of :func:`repro.run_campaign`
        and :func:`repro.serve` under the same int seed, and
        ``emulate(n_times=T)`` is a prefix of ``emulate(n_times=T2)`` for
        ``T <= T2``.

        Parameters
        ----------
        n_realizations:
            Number of emulation members.
        n_times:
            Emulation length (defaults to the training length); must be at
            least 1 when given.
        annual_forcing:
            Forcing trajectory (defaults to the training forcing, i.e. an
            in-sample emulation).  Accepts a raw annual array, a
            registered scenario name (``"ssp-high"``), or a
            :class:`~repro.scenarios.spec.ScenarioSpec`.  A bare name is
            materialised at the registry's default baseline
            (``start_level=2.5``); for another baseline pass the spec,
            e.g. ``resolve_scenario("ssp-high", start_level=3.0)`` from
            :mod:`repro.scenarios`.
        rng:
            An int seed (member ``r`` draws from ``SeedSequence(rng,
            spawn_key=(r,))``), ``None`` for fresh entropy under the same
            rule, or a ``numpy.random.Generator`` for a one-member call.
        include_nugget:
            Include the truncation nugget.
        """
        chunks = list(self.emulate_stream(
            n_realizations, n_times, annual_forcing, rng, include_nugget
        ))
        first = chunks[0]
        return ClimateEnsemble(
            data=np.concatenate([chunk.data for chunk in chunks], axis=1),
            grid=first.grid,
            forcing_annual=first.forcing_annual,
            steps_per_year=first.steps_per_year,
            start_year=first.start_year,
            metadata={"source": "emulator", "include_nugget": include_nugget},
        )

    def emulate_stream(
        self,
        n_realizations: int = 1,
        n_times: int | None = None,
        annual_forcing: "np.ndarray | str | ScenarioSpec | None" = None,
        rng: "int | np.random.Generator | None" = None,
        include_nugget: bool = True,
        chunk_size: int | None = None,
    ) -> Iterator[ClimateEnsemble]:
        """Generate an emulation as a stream of one-model-year chunks.

        Same draws as :meth:`emulate` (which concatenates this stream),
        yielded as consecutive :class:`~repro.data.ensemble.ClimateEnsemble`
        chunks of one model year each, with the VAR state carried across
        chunks.  This keeps peak memory at ``O(R * steps_per_year *
        N_theta * N_phi)`` regardless of the scenario length, which is
        what makes century-scale hourly runs writable to disk as they are
        generated.  ``rng`` is as in :meth:`emulate`; ``chunk_size`` is
        accepted only as ``None`` or ``steps_per_year``.
        """
        self._require_fit()
        assert self.training_summary is not None
        n_times, forcing = self._resolve_emulation_args(n_times, annual_forcing)
        return self.generator().generate_stream_multi(
            _member_rngs(rng, range(n_realizations)),
            n_times=n_times,
            annual_forcing=forcing,
            include_nugget=include_nugget,
            start_year=self.training_summary.start_year,
            chunk_size=chunk_size,
        )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Nested state of every fitted pipeline stage.

        The layout mirrors the pipeline: ``config``, ``trend_model``,
        ``trend_fit``, ``scale``, ``spectral_model`` (VAR, nugget, and
        under ``cholesky`` the factor's row panels per stored precision —
        the innovation covariance itself is not part of the state) and
        ``training`` (the :class:`TrainingSummary`).
        :meth:`from_state` rebuilds an emulator that emulates bit-exactly
        as this one; calling this on that rebuilt emulator works too.
        """
        self._require_fit()
        assert self.trend_model is not None and self.trend_fit is not None
        assert self.scale is not None and self.spectral_model is not None
        assert self.training_summary is not None
        return {
            "config": self.config.to_dict(),
            "trend_model": self.trend_model.state_dict(),
            "trend_fit": self.trend_fit.state_dict(),
            "scale": self.scale.state_dict(),
            "spectral_model": self.spectral_model.state_dict(),
            "training": self.training_summary.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ClimateEmulator":
        """Rebuild a fitted emulator from :meth:`state_dict` output."""
        emulator = cls(config=EmulatorConfig.from_dict(state["config"]))
        emulator.trend_model = MeanTrendModel.from_state(state["trend_model"])
        emulator.trend_fit = TrendFit.from_state(state["trend_fit"])
        emulator.trend_model.fit_result = emulator.trend_fit
        emulator.scale = ScaleField.from_state(state["scale"])
        emulator.spectral_model = SpectralStochasticModel.from_state(
            state["spectral_model"]
        )
        emulator.training_summary = TrainingSummary.from_state(state["training"])
        return emulator

    def to_artifact(self) -> "EmulatorArtifact":
        """Wrap the fitted state in a versioned :class:`EmulatorArtifact`."""
        from repro.api.artifact import EmulatorArtifact

        return EmulatorArtifact.from_emulator(self)

    def measured_artifact_bytes(self) -> int:
        """Measured size in bytes of the serialised artifact.

        The fitted state is immutable once :meth:`fit` completes, so the
        serialisation runs once per fit and the size is cached — repeated
        reporting calls stay cheap.
        """
        if self._artifact_nbytes is None:
            self._artifact_nbytes = self.to_artifact().nbytes()
        return self._artifact_nbytes

    def save(self, path: "str | os.PathLike") -> "str":
        """Persist the fitted emulator as an NPZ artifact at ``path``."""
        return self.to_artifact().save(path)

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "ClimateEmulator":
        """Load a fitted emulator from an artifact written by :meth:`save`."""
        from repro.api.artifact import EmulatorArtifact

        return EmulatorArtifact.load(path).to_emulator()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def parameter_count(self) -> int:
        """Total number of stored emulator parameters."""
        self._require_fit()
        assert self.trend_fit is not None and self.scale is not None
        trend_params = int(np.prod(self.trend_fit.coefficients.shape)) + int(
            np.prod(self.trend_fit.rho.shape)
        )
        scale_params = int(np.prod(self.scale.sigma.shape))
        return trend_params + scale_params + self.spectral_model.parameter_count()

    def parameter_bytes(self, bytes_per_value: int = 8) -> int:
        """Storage footprint of the emulator parameters."""
        return self.parameter_count() * bytes_per_value

    def storage_summary(self, measure_artifact: bool = True) -> dict:
        """Raw-training-data versus emulator-parameter storage comparison.

        With ``measure_artifact`` (the default), the fitted state is
        serialised in memory and the *measured* artifact byte count is
        reported next to the theoretical ``parameter_bytes`` — the honest
        version of the "parameters replace petabytes" claim, including
        format overhead and compression.
        """
        self._require_fit()
        assert self.training_summary is not None
        raw = self.training_summary.raw_bytes(np.float32)
        params = self.parameter_bytes()
        summary = {
            "raw_bytes_float32": raw,
            "parameter_bytes": params,
            "compression_factor": raw / params if params else float("inf"),
            "n_data_points": self.training_summary.n_data_points,
            "n_parameters": self.parameter_count(),
        }
        if measure_artifact:
            from repro.storage.accounting import measured_artifact_report

            report = measured_artifact_report(self)
            summary["measured_artifact_bytes"] = report["measured_artifact_bytes"]
            summary["measured_compression_factor"] = report["measured_compression_factor"]
        return summary

    def describe(self) -> dict:
        """Configuration plus fit-state summary."""
        info = {"config": self.config.describe(), "fitted": self.is_fitted}
        if self.is_fitted:
            assert self.spectral_model is not None
            info["cholesky_variant"] = self.spectral_model.cholesky.variant
            info["n_coeffs"] = self.config.n_coeffs
            # Skip the in-memory artifact serialisation: describe() is a
            # cheap reporting call; measured bytes are available on demand
            # through storage_summary().
            info["storage"] = self.storage_summary(measure_artifact=False)
        return info
