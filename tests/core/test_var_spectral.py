"""Tests of the diagonal VAR and the spectral stochastic model."""

import numpy as np
import pytest
from scipy.linalg.blas import dsyrk

import repro
from repro.core.spectral_model import SpectralStochasticModel
from repro.core.var import _DiagonalVAR
from repro.linalg import VARIANTS
from repro.linalg.cholesky import CholeskyResult, MixedPrecisionCholesky


class TestDiagonalVAR:
    def _simulate_ar(self, rng, phi, n_times=600, n_comp=4):
        series = np.zeros((n_times, n_comp))
        for t in range(1, n_times):
            series[t] = phi * series[t - 1] + rng.standard_normal(n_comp)
        return series

    def test_recovers_ar1_coefficients(self, rng):
        phi = np.array([0.8, 0.3, -0.5, 0.0])
        series = self._simulate_ar(rng, phi)
        var = _DiagonalVAR(order=1).fit(series)
        assert np.max(np.abs(var.coefficients[0] - phi)) < 0.1

    def test_innovations_are_whitened(self, rng):
        phi = np.array([0.9, 0.7])
        series = self._simulate_ar(rng, phi, n_comp=2)
        var = _DiagonalVAR(order=1).fit(series)
        innov = var.innovations(series)
        assert innov.shape == (series.shape[0] - 1, 2)
        lag1 = np.corrcoef(innov[1:, 0], innov[:-1, 0])[0, 1]
        assert abs(lag1) < 0.1

    def test_simulate_then_innovate_roundtrip(self, rng):
        var = _DiagonalVAR(order=2)
        series = rng.standard_normal((2, 60, 5))
        var.fit(series)
        innov = rng.standard_normal((40, 5))
        simulated = var.simulate(innov)
        recovered = var.innovations(simulated)
        # Innovations after the warm-up window must match what we fed in.
        assert np.allclose(recovered[5:], innov[2 + 5:], atol=1e-10)

    def test_order_zero_passthrough(self, rng):
        var = _DiagonalVAR(order=0).fit(rng.standard_normal((30, 3)))
        series = rng.standard_normal((10, 3))
        assert np.allclose(var.innovations(series), series)
        assert np.allclose(var.simulate(series), series)

    def test_ensemble_pooling(self, rng):
        phi = np.array([0.6, -0.2, 0.4])
        members = np.stack([self._simulate_ar(rng, phi, 300, 3) for _ in range(3)])
        var = _DiagonalVAR(order=1).fit(members)
        assert np.max(np.abs(var.coefficients[0] - phi)) < 0.12

    def test_spectral_radius_stationary(self, rng):
        phi = np.array([0.5, 0.9])
        series = self._simulate_ar(rng, phi, 500, 2)
        var = _DiagonalVAR(order=1).fit(series)
        radii = var.spectral_radius()
        assert np.all(radii < 1.0)

    def test_errors(self, rng):
        with pytest.raises(RuntimeError):
            _DiagonalVAR(order=1).innovations(rng.standard_normal((10, 2)))
        with pytest.raises(ValueError):
            _DiagonalVAR(order=5).fit(rng.standard_normal((4, 2)))
        with pytest.raises(ValueError):
            _DiagonalVAR(order=1).fit(rng.standard_normal((4,)))

    def test_predict_one_step(self, rng):
        var = _DiagonalVAR(order=2)
        var.fit(rng.standard_normal((1, 50, 3)))
        history = rng.standard_normal((6, 3))
        pred = var.predict_one_step(history)
        assert pred.shape == (3,)


class TestSpectralStochasticModel:
    @pytest.fixture(scope="class")
    def fitted(self, request):
        small_ensemble = request.getfixturevalue("small_ensemble")
        rng = np.random.default_rng(0)
        standardized = (
            small_ensemble.data - small_ensemble.data.mean(axis=(0, 1))
        ) / small_ensemble.data.std(axis=(0, 1))
        model = SpectralStochasticModel(
            lmax=8, grid=small_ensemble.grid, var_order=1, tile_size=16,
            precision_variant="DP", covariance_jitter=1e-6,
        )
        model.fit(standardized)
        return model, standardized

    def test_spectral_series_shape(self, fitted):
        model, standardized = fitted
        series = model.spectral_series(standardized)
        assert series.shape == standardized.shape[:2] + (64,)
        assert series.dtype == np.float64

    def test_covariance_is_spd(self, fitted, innovation_covariance):
        eigenvalues = np.linalg.eigvalsh(innovation_covariance(*fitted))
        assert eigenvalues.min() > 0

    def test_cholesky_reconstructs_covariance(self, fitted, innovation_covariance):
        model, standardized = fitted
        # The factorisation applies the configured relative jitter (1e-6)
        # to the diagonal tiles, so the reconstruction is accurate to that
        # level rather than to machine precision.
        assert model.cholesky.relative_error(innovation_covariance(model, standardized)) < 1e-5
        assert not hasattr(model, "covariance")  # factored in place, not kept

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fit_factor_is_factorize_of_the_syrk_covariance(self, fitted, variant):
        """One factorisation path: the fit's in-place factor is, bit for bit,
        what ``factorize`` makes of the symmetrised SYRK covariance."""
        _, standardized = fitted
        model = SpectralStochasticModel(
            lmax=8, grid=fitted[0].grid, var_order=1, tile_size=16,
            precision_variant=variant, covariance_jitter=1e-4,
        ).fit(standardized)
        flat = model.var.innovations(model.spectral_series(standardized)).reshape(-1, 64)
        upper = dsyrk(1.0 / flat.shape[0], flat.T, lower=0)
        covariance = np.triu(upper) + np.triu(upper, 1).T
        covariance[np.diag_indices(64)] += 1e-4 * float(np.mean(np.diag(covariance)))
        refactored = MixedPrecisionCholesky(
            tile_size=16, variant=variant, jitter=1e-4
        ).factorize(covariance)
        assert np.array_equal(model.cholesky.tile_precision, refactored.tile_precision)
        assert np.array_equal(model.cholesky.lower(), refactored.lower())

    def test_nugget_nonnegative_and_small(self, fitted):
        model, standardized = fitted
        assert model.nugget_std.shape == standardized.shape[2:]
        assert np.all(model.nugget_std >= 0)
        assert model.nugget_std.mean() < 0.5

    def test_generated_fields_match_variance(self, fitted):
        model, standardized = fitted
        rngs = [np.random.default_rng(1), np.random.default_rng(2)]
        fields = np.concatenate(list(model.generate_standardized_stream_multi(
            rngs, n_years=2, steps_per_year=24
        )), axis=1)
        assert fields.shape == (2, 48) + standardized.shape[2:]
        assert abs(fields.std() - standardized.std()) < 0.35

    def test_generation_never_densifies_the_factor(
        self, fitted_emulator, tmp_path, monkeypatch
    ):
        """A campaign and a cold service request run with ``lower()`` raising."""
        fitted_emulator.save(tmp_path / "emulator.npz")

        def densified(self, *args, **kwargs):
            raise AssertionError("the generation path densified the factor")

        monkeypatch.setattr(CholeskyResult, "lower", densified)
        manifest = repro.run_campaign(
            tmp_path / "emulator.npz", ["ssp-low"], n_realizations=2, n_times=24,
            seed=3, collect="none", store=tmp_path / "store",
        )
        assert len(manifest.runs) == 2
        service = repro.serve(tmp_path / "emulator.npz", seed=3)
        assert service.get(repro.FieldRequest("ssp-low")).shape[0] == 24
        assert service.stats()["synthesis"]["flights"] == 1

    def test_parameter_count_formula(self, fitted):
        model, _ = fitted
        k = 64
        expected = k * (k + 1) // 2 + model.var_order * k + int(np.prod(model.nugget_std.shape))
        assert model.parameter_count() == expected

    def test_unfitted_raises(self, small_ensemble):
        model = SpectralStochasticModel(lmax=8, grid=small_ensemble.grid)
        with pytest.raises(RuntimeError):
            model.sample_innovations(np.random.default_rng(), 1, 4)
        with pytest.raises(RuntimeError):
            model.parameter_count()

    @pytest.mark.parametrize("variant", ["DP/SP/HP", "DP/HP"])
    def test_rank_deficient_half_precision_fit_is_refused_actionably(
        self, small_ensemble, variant
    ):
        """15 samples for k = 64: a 1e-6 ridge is below half-precision
        rounding, and the refusal says so — and what to raise."""
        standardized = np.random.default_rng(0).standard_normal((1, 16) + small_ensemble.grid.shape)

        def fit(jitter):
            return SpectralStochasticModel(
                lmax=8, grid=small_ensemble.grid, var_order=1, tile_size=16,
                precision_variant=variant, covariance_jitter=jitter,
            ).fit(standardized)

        with pytest.raises(np.linalg.LinAlgError) as refused:
            fit(1e-6)
        message = str(refused.value)
        for part in (variant, "k = 64", "15 samples", "covariance_jitter=1e-06",
                     "not positive definite", "raise covariance_jitter to 9.8e-04"):
            assert part in message
        assert fit(1e-3).cholesky.n == 64

    def test_record_too_short_raises(self, small_ensemble):
        model = SpectralStochasticModel(lmax=8, grid=small_ensemble.grid, var_order=3)
        with pytest.raises(ValueError):
            model.fit(np.zeros((1, 3) + small_ensemble.grid.shape))
