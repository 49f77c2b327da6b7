"""``fit_L48`` — the analysis direction: fit, save, load.

Forward SHT, trend regression, covariance plus tiled Cholesky and
artifact I/O do all the work; generation, the chunk store and the
service are never called.
"""

from __future__ import annotations

import os

import numpy as np

import repro
from repro.api.artifact import EmulatorArtifact
from repro.core.scale import ScaleField
from repro.core.spectral_model import SpectralStochasticModel
from repro.core.trend import MeanTrendModel
from repro.linalg.cholesky import MixedPrecisionCholesky
from repro.linalg.flops import cholesky_flops

from benchmarks.e2e import layers
from benchmarks.e2e.common import (
    STEPS_PER_YEAR, Workload, child_int, era5_ensemble, fit_config, sha256, timed,
)


class FitWorkload(Workload):
    name = "fit_L48"
    min_rounds = 4

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.lmax = 8 if smoke else 48
        self.n_ensemble, self.n_years = (2, 3) if smoke else (3, 5)
        self.config = fit_config(self.lmax)
        self.path = os.path.join(self.workdir, "emulator.npz")

    def make_inputs(self) -> str:
        self.ensemble, self.generate_s = timed(
            era5_ensemble, self.lmax, self.n_ensemble, self.n_years, child_int(self.seed, 0)
        )
        self.n_fields = self.n_ensemble * self.ensemble.n_times
        return sha256(self.ensemble.data, self.ensemble.forcing_annual)

    def _cycle(self) -> dict:
        self.emulator, fit_s = timed(repro.fit, self.ensemble, self.config)
        _, save_s = timed(repro.save, self.emulator, self.path)
        self.loaded, load_s = timed(repro.load, self.path)
        return {"fit": fit_s, "save": save_s, "load": load_s, "round": fit_s + save_s + load_s}

    def setup(self) -> None:
        repro.clear_plan_cache()
        _, self.plan_build_s = timed(
            repro.get_plan, self.config.sht_method, self.lmax, self.ensemble.grid
        )
        self._cycle()

    def round(self) -> dict:
        stages = self._cycle()
        # The loaded emulator must emulate exactly as the fitted one does.
        same = [
            emulator.emulate(
                n_realizations=1, n_times=STEPS_PER_YEAR,
                rng=np.random.default_rng(child_int(self.seed, 1)),
            ).data
            for emulator in (self.emulator, self.loaded)
        ]
        self.attempted += 1
        self.failed += not np.array_equal(*same)
        return stages

    def report(self, rounds: dict, metrics) -> None:
        metrics.put_timing("ms_per_field", rounds["round"], 1e3 / self.n_fields)
        metrics.put_timing("fit_s", rounds["fit"])
        metrics.put_timing("save_s", rounds["save"])
        metrics.put_timing("load_s", rounds["load"])
        metrics.put("artifact_mb", os.path.getsize(self.path) / 1e6)

    def check_summary(self) -> None:
        """The artifact's own reporting helper must read what ``save`` wrote.

        It re-serialises the artifact (seconds at L = 48), so only the
        traced run pays for it; every round of every run already proves
        the round trip bit for bit.
        """
        self.attempted += 1
        try:
            summary = EmulatorArtifact.load(self.path).summary()
            ok = summary["config"]["lmax"] == self.lmax and summary["nbytes"] > 0
        except Exception as error:  # counted, not raised: the run still reports
            self.info["summary_error"] = repr(error)
            ok = False
        self.failed += not ok

    def _replay_fit(self, tracer) -> dict:
        """``ClimateEmulator.fit`` stage by stage through the layers' own calls."""
        ensemble, config = self.ensemble, self.config
        with tracer.span("core.trend_fit"):
            trend = MeanTrendModel(
                steps_per_year=ensemble.steps_per_year, n_harmonics=config.n_harmonics,
                rho_grid=config.rho_grid, use_distributed_lag=config.use_distributed_lag,
            )
            trend_fit = trend.fit(ensemble.data, ensemble.forcing_annual)
            residuals = trend.residuals(ensemble.data, ensemble.forcing_annual, trend_fit)
        with tracer.span("core.scale"):
            standardized = ScaleField.from_residuals(residuals).standardize(residuals)
        model = SpectralStochasticModel(
            lmax=config.lmax, grid=ensemble.grid, var_order=config.var_order,
            tile_size=config.tile_size, precision_variant=config.precision_variant,
            covariance_jitter=config.covariance_jitter, sht_method=config.sht_method,
        )
        with tracer.span("core.analysis"):
            spectral = model.spectral_series(standardized)
        with tracer.span("core.var_fit"):
            model.var.fit(spectral)
            innovations = model.var.innovations(spectral)
        with tracer.span("core.covariance"):
            flat = innovations.reshape(-1, innovations.shape[-1])
            covariance = flat.T @ flat / len(flat)
            covariance += np.eye(len(covariance)) * (
                config.covariance_jitter * float(np.mean(np.diag(covariance)))
            )
        with tracer.span("linalg.cholesky", order=len(covariance)):
            solver = MixedPrecisionCholesky(
                tile_size=config.tile_size, variant=config.precision_variant,
                jitter=config.covariance_jitter,
            )
            cholesky = solver.factorize(covariance)
        with tracer.span("core.truncation"):
            model.truncation_residual(standardized, spectral).std(axis=(0, 1), ddof=1)
        return {"spectral": spectral, "covariance": covariance, "cholesky": cholesky}

    def trace(self, tracer, seconds: float, rounds: dict, metrics) -> None:
        with tracer.span("round"):
            with tracer.span("fit"):
                parts = self._replay_fit(tracer)
            with tracer.span("api.save"):
                repro.save(self.emulator, self.path)
            with tracer.span("api.load"):
                repro.load(self.path)
        metrics.put("data.generate_s", self.generate_s)
        layers.plan_metrics(metrics, self.plan_build_s)
        named = 0.0
        for span, metric in (
            ("core.trend_fit", "core.trend_fit_s"), ("core.scale", "core.scale_s"),
            ("core.analysis", "core.analysis_s"), ("core.var_fit", "core.var_fit_s"),
            ("core.truncation", "core.truncation_s"), ("linalg.cholesky", "linalg.cholesky_s"),
        ):
            span_s = min(tracer.seconds(span))
            metrics.put(metric, span_s)
            named += span_s
        # Against the replayed fit, which ran in the same moment as its parts:
        # what is left is the covariance product and object construction.
        metrics.put("core.fit_unattributed_share", 1.0 - named / min(tracer.seconds("fit")))
        order = len(parts["covariance"])
        metrics.put("linalg.cholesky_gflop", cholesky_flops(order) / 1e9)
        metrics.put(
            "linalg.cholesky_gflops",
            cholesky_flops(order) / 1e9 / min(tracer.seconds("linalg.cholesky")),
        )
        with tracer.span("linalg.check"):
            metrics.put(
                "linalg.cholesky_rel_err", parts["cholesky"].relative_error(parts["covariance"])
            )
            metrics.put("linalg.lower_ms", timed(parts["cholesky"].lower)[1] * 1e3)
        artifact_bytes = os.path.getsize(self.path)
        metrics.put("api.artifact_bytes", artifact_bytes)
        metrics.put("api.save_mb_per_s", artifact_bytes / 1e6 / min(rounds["save"]))
        metrics.put("api.load_mb_per_s", artifact_bytes / 1e6 / min(rounds["load"]))
        layers.sht_layer(tracer, metrics, self.emulator.spectral_model.plan, parts["spectral"])
        layers.obs_overhead(
            tracer, metrics, lambda: timed(repro.fit, self.ensemble, self.config)[1], 1
        )
        with tracer.span("api.summary"):
            self.check_summary()
