"""Tests of the diagonal VAR and the spectral stochastic model."""

import numpy as np
import pytest

import repro
from repro.core.spectral_model import SpectralStochasticModel
from repro.core.var import DiagonalVAR
from repro.linalg.cholesky import CholeskyResult, MixedPrecisionCholesky
from repro.linalg.tiled_matrix import TiledSymmetricMatrix


class TestDiagonalVAR:
    def _simulate_ar(self, rng, phi, n_times=600, n_comp=4):
        series = np.zeros((n_times, n_comp))
        for t in range(1, n_times):
            series[t] = phi * series[t - 1] + rng.standard_normal(n_comp)
        return series

    def test_recovers_ar1_coefficients(self, rng):
        phi = np.array([0.8, 0.3, -0.5, 0.0])
        series = self._simulate_ar(rng, phi)
        var = DiagonalVAR(order=1).fit(series)
        assert np.max(np.abs(var.coefficients[0] - phi)) < 0.1

    def test_innovations_are_whitened(self, rng):
        phi = np.array([0.9, 0.7])
        series = self._simulate_ar(rng, phi, n_comp=2)
        var = DiagonalVAR(order=1).fit(series)
        innov = var.innovations(series)
        assert innov.shape == (series.shape[0] - 1, 2)
        lag1 = np.corrcoef(innov[1:, 0], innov[:-1, 0])[0, 1]
        assert abs(lag1) < 0.1

    def test_simulate_then_innovate_roundtrip(self, rng):
        var = DiagonalVAR(order=2)
        series = rng.standard_normal((2, 60, 5))
        var.fit(series)
        innov = rng.standard_normal((40, 5))
        simulated = var.simulate(innov)
        recovered = var.innovations(simulated)
        # Innovations after the warm-up window must match what we fed in.
        assert np.allclose(recovered[5:], innov[2 + 5:], atol=1e-10)

    def test_order_zero_passthrough(self, rng):
        var = DiagonalVAR(order=0).fit(rng.standard_normal((30, 3)))
        series = rng.standard_normal((10, 3))
        assert np.allclose(var.innovations(series), series)
        assert np.allclose(var.simulate(series), series)

    def test_ensemble_pooling(self, rng):
        phi = np.array([0.6, -0.2, 0.4])
        members = np.stack([self._simulate_ar(rng, phi, 300, 3) for _ in range(3)])
        var = DiagonalVAR(order=1).fit(members)
        assert np.max(np.abs(var.coefficients[0] - phi)) < 0.12

    def test_spectral_radius_stationary(self, rng):
        phi = np.array([0.5, 0.9])
        series = self._simulate_ar(rng, phi, 500, 2)
        var = DiagonalVAR(order=1).fit(series)
        radii = var.spectral_radius()
        assert np.all(radii < 1.0)

    def test_errors(self, rng):
        with pytest.raises(RuntimeError):
            DiagonalVAR(order=1).innovations(rng.standard_normal((10, 2)))
        with pytest.raises(ValueError):
            DiagonalVAR(order=5).fit(rng.standard_normal((4, 2)))
        with pytest.raises(ValueError):
            DiagonalVAR(order=1).fit(rng.standard_normal((4,)))

    def test_predict_one_step(self, rng):
        var = DiagonalVAR(order=2)
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

    def test_covariance_is_spd(self, fitted):
        model, _ = fitted
        eigenvalues = np.linalg.eigvalsh(model.covariance)
        assert eigenvalues.min() > 0

    def test_cholesky_reconstructs_covariance(self, fitted):
        model, _ = fitted
        l = model.cholesky.lower()
        rel = np.linalg.norm(l @ l.T - model.covariance) / np.linalg.norm(model.covariance)
        # The factorisation applies the configured relative jitter (1e-6)
        # inside the diagonal kernels, so the reconstruction is accurate to
        # that level rather than to machine precision.
        assert rel < 1e-5

    def test_in_place_jitter_is_the_out_of_place_covariance(self, fitted):
        """``cov[diag] += ...`` leaves the bits ``cov + eye * ...`` produced,
        so the factor's bits are unchanged too."""
        model, standardized = fitted
        flat = model.var.innovations(model.spectral_series(standardized)).reshape(-1, 64)
        cov = flat.T @ flat / flat.shape[0]
        expected = cov + np.eye(64) * model.covariance_jitter * float(np.mean(np.diag(cov)))
        assert np.array_equal(model.covariance, expected)
        refactored = MixedPrecisionCholesky(
            tile_size=16, variant="DP", jitter=model.covariance_jitter
        ).factorize(expected)
        assert np.array_equal(model.cholesky.lower(), refactored.lower())

    def test_nugget_nonnegative_and_small(self, fitted):
        model, standardized = fitted
        assert model.nugget_std.shape == standardized.shape[2:]
        assert np.all(model.nugget_std >= 0)
        assert model.nugget_std.mean() < 0.5

    def test_generated_fields_match_variance(self, fitted):
        model, standardized = fitted
        rng = np.random.default_rng(1)
        (t_start, fields), = model.generate_standardized_stream_multi(
            [rng] * 2, n_times=48, chunk_size=48
        )
        assert t_start == 0
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
        monkeypatch.setattr(TiledSymmetricMatrix, "to_dense", densified)
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

    def test_record_too_short_raises(self, small_ensemble):
        model = SpectralStochasticModel(lmax=8, grid=small_ensemble.grid, var_order=3)
        with pytest.raises(ValueError):
            model.fit(np.zeros((1, 3) + small_ensemble.grid.shape))
