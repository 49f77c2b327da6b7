"""Tests of the mean-trend model and the scale field."""

import numpy as np
import pytest

from repro.core.scale import ScaleField
from repro.core.trend import MeanTrendModel, TrendFit, distributed_lag_series
from repro.data import Era5LikeConfig, Era5LikeGenerator
from repro.scenarios import resolve_scenario


def historical(n_years: int) -> np.ndarray:
    return resolve_scenario("historical").annual_forcing(n_years)


class TestDistributedLag:
    def test_recursion_matches_direct_sum(self):
        x = historical(20)
        rho = 0.6
        d = distributed_lag_series(x, rho)
        # Direct evaluation of (1-rho) sum_{s>=1} rho^{s-1} x_{y-s} with the
        # pre-record history pinned at x[0].
        for y in range(20):
            total = 0.0
            for s in range(1, 200):
                xs = x[y - s] if y - s >= 0 else x[0]
                total += (1 - rho) * rho ** (s - 1) * xs
            assert d[y] == pytest.approx(total, rel=1e-10)

    def test_rho_zero_is_previous_year(self):
        x = np.array([1.0, 5.0, 2.0, 7.0])
        d = distributed_lag_series(x, 0.0)
        assert np.allclose(d[1:], x[:-1])

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            distributed_lag_series(np.ones(3), 1.0)


class TestMeanTrendModel:
    def _synthetic(self, rng, n_space=30, n_years=6, steps=12):
        """Per-location synthetic data with known coefficients."""
        forcing = historical(n_years)
        model = MeanTrendModel(steps_per_year=steps, n_harmonics=1,
                               rho_grid=(0.5,), use_distributed_lag=False)
        design = model.design_matrix(n_years * steps, forcing, 0.5)
        true_coeffs = rng.standard_normal((design.shape[1], n_space)) * np.array(
            [[10.0], [0.5], [3.0], [3.0]]
        )
        clean = design @ true_coeffs
        data = clean + 0.01 * rng.standard_normal(clean.shape)
        return data.reshape(1, n_years * steps, 5, 6), forcing, true_coeffs, model

    def test_recovers_known_coefficients(self, rng):
        data, forcing, true_coeffs, model = self._synthetic(rng)
        fit = model.fit(data, forcing)
        recovered = fit.coefficients.reshape(-1, true_coeffs.shape[0]).T
        assert np.max(np.abs(recovered - true_coeffs)) < 0.05

    def test_predict_reproduces_fitted_mean(self, rng):
        data, forcing, _, model = self._synthetic(rng)
        fit = model.fit(data, forcing)
        mean = model.predict(data.shape[1], forcing, fit)
        resid = data[0] - mean
        assert np.sqrt(np.mean(resid ** 2)) < 0.05

    def test_residuals_shape(self, small_ensemble):
        model = MeanTrendModel(steps_per_year=small_ensemble.steps_per_year, n_harmonics=2)
        model.fit(small_ensemble.data, small_ensemble.forcing_annual)
        resid = model.residuals(small_ensemble.data, small_ensemble.forcing_annual)
        assert resid.shape == small_ensemble.data.shape
        # Removing the trend must reduce variance substantially (the seasonal
        # cycle dominates raw variance).
        assert resid.std() < 0.6 * small_ensemble.data.std()

    def test_rho_profile_selects_per_location_values(self, small_ensemble):
        model = MeanTrendModel(
            steps_per_year=small_ensemble.steps_per_year,
            n_harmonics=1,
            rho_grid=(0.2, 0.8),
        )
        fit = model.fit(small_ensemble.data, small_ensemble.forcing_annual)
        assert set(np.unique(fit.rho)).issubset({0.2, 0.8})

    def test_forcing_too_short_raises(self, small_ensemble):
        model = MeanTrendModel(steps_per_year=24)
        with pytest.raises(ValueError):
            model.fit(small_ensemble.data, small_ensemble.forcing_annual[:1])

    def test_predict_before_fit_raises(self):
        model = MeanTrendModel(steps_per_year=12)
        with pytest.raises(RuntimeError):
            model.predict(10, np.ones(2))

    def test_seasonal_amplitude_recovery_against_generator(self, small_ensemble):
        """The fitted annual-harmonic amplitude tracks the generator's field."""
        from repro.data import Era5LikeConfig, Era5LikeGenerator

        gen = Era5LikeGenerator(Era5LikeConfig(lmax=8, n_years=3, steps_per_year=24, n_ensemble=2), seed=42)
        model = MeanTrendModel(steps_per_year=24, n_harmonics=2, rho_grid=(0.5,))
        fit = model.fit(small_ensemble.data, small_ensemble.forcing_annual)
        truth = np.abs(gen.seasonal_amplitude())
        names = fit.regressor_names
        cos1 = fit.coefficients[..., names.index("cos1")]
        sin1 = fit.coefficients[..., names.index("sin1")]
        fitted = np.sqrt(cos1 ** 2 + sin1 ** 2)
        mask = truth > 2.0
        rel_err = np.abs(fitted[mask] - truth[mask]) / truth[mask]
        assert np.median(rel_err) < 0.35


def _predict_oracle(model, n_times, forcing, fit, t_start=0):
    """The trend as one masked design-matrix product per distinct ``rho``."""
    coeffs = fit.coefficients.reshape(-1, fit.coefficients.shape[-1])
    rho_flat = fit.rho.reshape(-1)
    out = np.empty((n_times, coeffs.shape[0]), dtype=np.float64)
    for rho in np.unique(rho_flat):
        design = model.design_matrix(n_times, forcing, float(rho), t_start=t_start)
        mask = rho_flat == rho
        out[:, mask] = design @ coeffs[mask].T
    return out.reshape((n_times,) + fit.rho.shape)


class TestPredictOracle:
    """``predict`` groups the locations by ``rho`` once per fit: the same
    GEMM per ``rho`` as the masked loop, so the same bits."""

    RHO_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)

    def _fit(self, rho_map):
        local = np.random.default_rng(31)
        model = MeanTrendModel(steps_per_year=12, n_harmonics=2, rho_grid=self.RHO_GRID)
        n_params = len(model.regressor_names())
        fit = TrendFit(
            coefficients=local.standard_normal(rho_map.shape + (n_params,)),
            rho=rho_map,
            residual_variance=np.ones(rho_map.shape),
            regressor_names=model.regressor_names(),
        )
        return model, fit

    @pytest.mark.parametrize("rho_map", ["one", "all_distinct", "random"])
    @pytest.mark.parametrize("t_start", [0, 30])
    def test_equals_the_masked_loop(self, rho_map, t_start):
        local = np.random.default_rng(32)
        shape = (5, 7)
        rho = {
            "one": np.full(shape, 0.5),
            "all_distinct": local.permutation(np.linspace(0.0, 0.95, 35)).reshape(shape),
            "random": local.choice(self.RHO_GRID, size=shape),
        }[rho_map]
        model, fit = self._fit(rho)
        forcing = historical(8)
        for _ in range(2):  # the groups are built once, then reused
            assert np.array_equal(
                model.predict(20, forcing, fit, t_start=t_start),
                _predict_oracle(model, 20, forcing, fit, t_start=t_start),
            )

    def test_a_fitted_trend_equals_the_masked_loop(self, small_ensemble):
        model = MeanTrendModel(steps_per_year=small_ensemble.steps_per_year)
        fit = model.fit(small_ensemble.data, small_ensemble.forcing_annual)
        assert len(np.unique(fit.rho)) > 1
        forcing = small_ensemble.forcing_annual
        assert np.array_equal(
            model.predict(24, forcing, fit, t_start=24),
            _predict_oracle(model, 24, forcing, fit, t_start=24),
        )


def _fit_oracle(model, data, forcing):
    """The ``lstsq`` per candidate ``rho`` that ``MeanTrendModel.fit`` used to
    run: ``(coefficients (p, n), rho (n,), sse (n,))`` over flat locations."""
    data = np.asarray(data, dtype=np.float64)
    target = data.mean(axis=0).reshape(data.shape[1], -1)
    best = (None, np.zeros(target.shape[1]), np.full(target.shape[1], np.inf))
    for rho in model.rho_grid if model.use_distributed_lag else (0.0,):
        design = model.design_matrix(data.shape[1], forcing, rho)
        coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
        sse = np.sum((target - design @ coeffs) ** 2, axis=0)
        improved = sse < best[2]
        best_coeffs = coeffs.copy() if best[0] is None else best[0]
        best_coeffs[:, improved] = coeffs[:, improved]
        best[1][improved] = rho
        best[2][improved] = sse[improved]
        best = (best_coeffs, best[1], best[2])
    return best


class TestFitOracle:
    """One SVD of the design per ``rho`` gives ``lstsq``'s minimum-norm
    solution (same rank cutoff) to rounding, and the same ``rho`` everywhere."""

    def _check(self, model, data, forcing):
        fit = model.fit(data, forcing)
        coeffs, rho, sse = _fit_oracle(model, data, forcing)
        n_params = coeffs.shape[0]
        ours = fit.coefficients.reshape(-1, n_params).T
        assert np.max(np.abs(ours - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))
        assert np.array_equal(fit.rho.reshape(-1), rho)
        dof = data.shape[1] - n_params
        variance = fit.residual_variance.reshape(-1)
        assert np.max(np.abs(variance - sse / dof)) <= 1e-12 * np.max(sse / dof)

    def test_a_fitted_ensemble(self):
        """Six years: with three or fewer, ``[1, x, d(rho)]`` spans the year
        indicators for every ``rho``, the sums of squares tie and rounding
        picks ``rho``."""
        config = Era5LikeConfig(lmax=8, n_years=6, steps_per_year=24, n_ensemble=2,
                                forcing_growth=1.0)
        ensemble = Era5LikeGenerator(config, seed=43).generate()
        model = MeanTrendModel(steps_per_year=ensemble.steps_per_year)
        self._check(model, ensemble.data, ensemble.forcing_annual)
        assert len(np.unique(model.fit_result.rho)) > 1

    def test_a_rank_deficient_design_gets_the_minimum_norm_solution(self):
        """Constant forcing makes the forcing and lagged-forcing columns
        multiples of the intercept: rank ``p - 2``."""
        local = np.random.default_rng(41)
        model = MeanTrendModel(steps_per_year=12, n_harmonics=2, rho_grid=(0.5,))
        forcing = np.full(4, 2.0)
        design = model.design_matrix(48, forcing, 0.5)
        assert np.linalg.matrix_rank(design) == design.shape[1] - 2
        data = local.standard_normal((2, 48, 3, 5)) + 7.0
        self._check(model, data, forcing)


class TestScaleField:
    def test_from_residuals_matches_numpy(self, rng):
        resid = rng.standard_normal((2, 50, 4, 5)) * 3.0
        scale = ScaleField.from_residuals(resid)
        assert scale.shape == (4, 5)
        assert np.allclose(scale.sigma, resid.std(axis=(0, 1), ddof=1))

    def test_standardize_roundtrip(self, rng):
        resid = rng.standard_normal((1, 30, 3, 4)) * 2.0
        scale = ScaleField.from_residuals(resid)
        z = scale.standardize(resid)
        assert np.allclose(z * scale.sigma, resid)
        assert abs(z.std() - 1.0) < 0.1

    def test_floor_prevents_division_blowup(self):
        scale = ScaleField(sigma=np.zeros((2, 2)), floor=1e-6)
        assert np.all(scale.sigma == 1e-6)

    def test_summary(self, rng):
        scale = ScaleField.from_residuals(rng.standard_normal((1, 40, 3, 3)))
        summary = scale.summary()
        assert summary["min"] <= summary["mean"] <= summary["max"]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ScaleField.from_residuals(np.zeros((3, 4)))
