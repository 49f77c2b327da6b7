"""Tests of the top-level facade and the streaming emulation API."""

import numpy as np
import pytest

import repro
from repro.core import ClimateEmulator, EmulatorConfig


class TestTopLevelExports:
    def test_public_api_importable_from_repro(self):
        assert repro.ClimateEmulator is ClimateEmulator
        assert repro.EmulatorConfig is EmulatorConfig
        for name in ("Era5LikeGenerator", "Era5LikeConfig", "ClimateEnsemble",
                     "EmulatorArtifact", "fit", "load", "save", "emulate",
                     "emulate_stream", "SHT_BACKENDS", "CHOLESKY_VARIANTS"):
            assert hasattr(repro, name), name

    def test_api_subpackage_exports(self):
        from repro import api

        assert api.fit is repro.fit
        assert api.EmulatorArtifact is repro.EmulatorArtifact
        with pytest.raises(AttributeError):
            api.no_such_symbol


class TestFitFacade:
    def test_fit_with_overrides(self, small_ensemble):
        emulator = repro.fit(small_ensemble, lmax=8, var_order=1, tile_size=16,
                             rho_grid=(0.5,))
        assert emulator.is_fitted
        assert emulator.config.lmax == 8 and emulator.config.var_order == 1

    def test_fit_with_config_and_override(self, small_ensemble):
        config = EmulatorConfig(lmax=8, var_order=1, tile_size=16, rho_grid=(0.5,))
        emulator = repro.fit(small_ensemble, config, precision_variant="DP/SP")
        assert emulator.config.precision_variant == "DP/SP"
        assert emulator.config.lmax == 8

    def test_emulate_accepts_emulator_or_path(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        repro.save(fitted_emulator, path)
        from_memory = repro.emulate(fitted_emulator, 1, rng=np.random.default_rng(4))
        from_disk = repro.emulate(str(path), 1, rng=np.random.default_rng(4))
        assert np.array_equal(from_memory.data, from_disk.data)

    def test_emulate_rejects_other_sources(self):
        with pytest.raises(TypeError):
            repro.emulate(42)


class TestNTimesValidation:
    def test_zero_n_times_rejected(self, fitted_emulator):
        """n_times=0 must raise, not silently fall back to the training length."""
        with pytest.raises(ValueError, match="n_times"):
            fitted_emulator.emulate(n_times=0)

    def test_negative_n_times_rejected(self, fitted_emulator):
        with pytest.raises(ValueError, match="n_times"):
            fitted_emulator.emulate(n_times=-5)

    def test_stream_zero_n_times_rejected(self, fitted_emulator):
        with pytest.raises(ValueError, match="n_times"):
            list(fitted_emulator.emulate_stream(n_times=0))

    def test_default_n_times_is_training_length(self, fitted_emulator):
        out = fitted_emulator.emulate(1, rng=np.random.default_rng(0))
        assert out.n_times == fitted_emulator.training_summary.n_times


class TestEmulateStream:
    def test_single_chunk_matches_emulate_bit_exactly(self, fitted_emulator):
        full = fitted_emulator.emulate(2, rng=np.random.default_rng(9))
        chunks = list(fitted_emulator.emulate_stream(
            2, rng=np.random.default_rng(9),
            chunk_size=fitted_emulator.training_summary.n_times,
        ))
        assert len(chunks) == 1
        assert np.array_equal(chunks[0].data, full.data)

    def test_chunks_cover_the_record(self, fitted_emulator):
        n_times = fitted_emulator.training_summary.n_times
        chunks = list(fitted_emulator.emulate_stream(
            1, rng=np.random.default_rng(2), chunk_size=7,
        ))
        assert sum(c.n_times for c in chunks) == n_times
        offsets = [c.metadata["stream_offset"] for c in chunks]
        assert offsets == list(np.cumsum([0] + [c.n_times for c in chunks[:-1]]))
        for chunk in chunks:
            assert chunk.data.shape[2:] == fitted_emulator.training_summary.grid.shape
            assert chunk.metadata["source"] == "emulator"

    def test_default_chunk_is_one_model_year(self, fitted_emulator):
        chunks = list(fitted_emulator.emulate_stream(1, rng=np.random.default_rng(2)))
        spy = fitted_emulator.training_summary.steps_per_year
        assert all(c.n_times == spy for c in chunks[:-1])

    def test_chunk_forcing_is_rebased_to_chunk_year(self, fitted_emulator):
        """Each chunk's forcing_per_step must match the monolithic run's."""
        spy = fitted_emulator.training_summary.steps_per_year
        n_years = 4
        forcing = np.linspace(1.0, 5.0, n_years)
        full = fitted_emulator.emulate(1, n_times=n_years * spy,
                                       annual_forcing=forcing,
                                       rng=np.random.default_rng(6))
        reference = full.forcing_per_step()
        chunks = fitted_emulator.emulate_stream(
            1, n_times=n_years * spy, annual_forcing=forcing,
            rng=np.random.default_rng(6), chunk_size=spy,
        )
        for chunk in chunks:
            offset = chunk.metadata["stream_offset"]
            assert chunk.metadata["stream_phase"] == 0
            np.testing.assert_array_equal(
                chunk.forcing_per_step(),
                reference[offset:offset + chunk.n_times],
            )
            assert chunk.start_year == full.start_year + offset // spy

    def test_streamed_statistics_match_monolithic(self, fitted_emulator):
        """Chunked generation follows the same process as one-shot generation."""
        full = fitted_emulator.emulate(2, rng=np.random.default_rng(21))
        streamed = np.concatenate(
            [c.data for c in fitted_emulator.emulate_stream(
                2, rng=np.random.default_rng(21), chunk_size=5)],
            axis=1,
        )
        assert streamed.shape == full.data.shape
        # Different draw order => different realisations, same distribution.
        assert abs(streamed.mean() - full.data.mean()) < 1.0
        assert abs(streamed.std() / full.data.std() - 1.0) < 0.2

    def test_single_chunk_with_custom_forcing_matches_emulate_bit_exactly(
            self, fitted_emulator):
        """The bit-exact single-chunk guarantee must hold off the training forcing."""
        spy = fitted_emulator.training_summary.steps_per_year
        n_times = 4 * spy
        forcing = np.array([1.0, 6.0, 2.0, 9.0])
        full = fitted_emulator.emulate(2, n_times=n_times, annual_forcing=forcing,
                                       rng=np.random.default_rng(17))
        chunks = list(fitted_emulator.emulate_stream(
            2, n_times=n_times, annual_forcing=forcing,
            rng=np.random.default_rng(17), chunk_size=n_times,
        ))
        assert len(chunks) == 1
        assert np.array_equal(chunks[0].data, full.data)

    def test_stream_forcing_indexed_by_absolute_time_across_chunks(
            self, fitted_emulator):
        """Chunks crossing year boundaries must see the monolithic trend.

        The stochastic draws are chunk-local, so the reference is built
        from the *monolithic* trend prediction (absolute time) plus the
        same chunk-local standardized stream — bit-exact equality proves
        the streamed mean indexes the forcing by absolute step, not by
        per-chunk time.
        """
        spy = fitted_emulator.training_summary.steps_per_year
        n_years = 5
        n_times = n_years * spy
        # Strong year-to-year jumps make any per-chunk re-indexing visible;
        # chunk_size=9 does not divide steps_per_year=24, so chunks
        # straddle year boundaries.
        forcing = np.array([1.0, 8.0, 2.0, 9.0, 3.0])
        chunk_size = 9
        assert spy % chunk_size != 0

        mean_full = fitted_emulator.trend_model.predict(
            n_times, forcing, fitted_emulator.trend_fit
        )
        chunks = list(fitted_emulator.emulate_stream(
            1, n_times=n_times, annual_forcing=forcing,
            rng=np.random.default_rng(33), chunk_size=chunk_size,
        ))
        z_stream = fitted_emulator.spectral_model.generate_standardized_stream_multi(
            [np.random.default_rng(33)], n_times, chunk_size, include_nugget=True,
        )
        assert sum(c.n_times for c in chunks) == n_times
        for chunk, (t_start, z) in zip(chunks, z_stream):
            assert chunk.metadata["stream_offset"] == t_start
            reference = (
                mean_full[t_start:t_start + chunk.n_times][None, ...]
                + fitted_emulator.scale.unstandardize(z)
            )
            assert np.array_equal(chunk.data, reference)

    def test_stream_bad_chunk_size(self, fitted_emulator):
        with pytest.raises(ValueError, match="chunk_size"):
            list(fitted_emulator.emulate_stream(1, chunk_size=0))

    def test_stream_validates_eagerly_at_call_site(self, fitted_emulator):
        """Bad arguments must raise when the stream is created, not at next()."""
        with pytest.raises(ValueError):
            fitted_emulator.emulate_stream(n_realizations=0)
        with pytest.raises(ValueError):
            fitted_emulator.emulate_stream(1, chunk_size=-1)

    def test_stream_validates_forcing_horizon_eagerly(self, fitted_emulator):
        """A too-short forcing must fail before any chunk is yielded."""
        spy = fitted_emulator.training_summary.steps_per_year
        with pytest.raises(ValueError, match="forcing covers"):
            fitted_emulator.emulate_stream(
                1, n_times=5 * spy, annual_forcing=np.array([1.0, 2.0]),
            )

    def test_facade_stream(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        repro.save(fitted_emulator, path)
        chunks = list(repro.emulate_stream(path, 1, n_times=10, chunk_size=4,
                                           rng=np.random.default_rng(1)))
        assert [c.n_times for c in chunks] == [4, 4, 2]


class TestScenarioForcingArguments:
    """emulate/emulate_stream accept scenario names and ScenarioSpec objects."""

    def test_emulate_accepts_scenario_name(self, fitted_emulator):
        from repro.data.forcing import scenario_forcing

        spy = fitted_emulator.training_summary.steps_per_year
        by_name = fitted_emulator.emulate(1, n_times=3 * spy,
                                          annual_forcing="stabilisation",
                                          rng=np.random.default_rng(8))
        by_array = fitted_emulator.emulate(1, n_times=3 * spy,
                                           annual_forcing=scenario_forcing("stabilisation", 3),
                                           rng=np.random.default_rng(8))
        assert np.array_equal(by_name.data, by_array.data)

    def test_emulate_accepts_scenario_spec(self, fitted_emulator):
        spec = repro.SCENARIOS.create("ssp-low", start_level=2.5)
        assert isinstance(spec, repro.ScenarioSpec)
        spy = fitted_emulator.training_summary.steps_per_year
        by_spec = fitted_emulator.emulate(1, n_times=2 * spy, annual_forcing=spec,
                                          rng=np.random.default_rng(8))
        by_array = fitted_emulator.emulate(1, n_times=2 * spy,
                                           annual_forcing=spec.annual_forcing(2),
                                           rng=np.random.default_rng(8))
        assert np.array_equal(by_spec.data, by_array.data)

    def test_stream_accepts_scenario_name(self, fitted_emulator):
        spy = fitted_emulator.training_summary.steps_per_year
        chunks = list(fitted_emulator.emulate_stream(
            1, n_times=2 * spy, annual_forcing="ssp-high",
            rng=np.random.default_rng(8),
        ))
        assert sum(c.n_times for c in chunks) == 2 * spy

    def test_unknown_scenario_name_raises_with_catalogue(self, fitted_emulator):
        with pytest.raises(ValueError, match="available"):
            fitted_emulator.emulate(1, annual_forcing="not-a-scenario")

    def test_facade_passes_scenario_through(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        repro.save(fitted_emulator, path)
        spy = fitted_emulator.training_summary.steps_per_year
        from_disk = repro.emulate(str(path), 1, n_times=spy,
                                  annual_forcing="overshoot",
                                  rng=np.random.default_rng(4))
        from_memory = repro.emulate(fitted_emulator, 1, n_times=spy,
                                    annual_forcing="overshoot",
                                    rng=np.random.default_rng(4))
        assert np.array_equal(from_disk.data, from_memory.data)
