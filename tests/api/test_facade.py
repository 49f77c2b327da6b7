"""Tests of the top-level facade and the streaming emulation API."""

import numpy as np
import pytest

import repro
from repro.core import ClimateEmulator, EmulatorConfig
from repro.scenarios import resolve_scenario


class TestTopLevelExports:
    def test_public_api_importable_from_repro(self):
        assert repro.ClimateEmulator is ClimateEmulator
        assert repro.EmulatorConfig is EmulatorConfig
        for name in ("Era5LikeGenerator", "Era5LikeConfig", "ClimateEnsemble",
                     "EmulatorArtifact", "fit", "load", "save", "emulate",
                     "emulate_stream", "get_plan"):
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
    def test_concatenated_stream_matches_emulate_bit_exactly(self, fitted_emulator):
        full = fitted_emulator.emulate(2, rng=9)
        chunks = list(fitted_emulator.emulate_stream(2, rng=9))
        assert len(chunks) == 3
        assert np.array_equal(np.concatenate([c.data for c in chunks], axis=1), full.data)

    def test_chunks_cover_the_record(self, fitted_emulator):
        spy = fitted_emulator.training_summary.steps_per_year
        n_times = 2 * spy + 7
        chunks = list(fitted_emulator.emulate_stream(1, n_times=n_times, rng=2))
        assert [c.n_times for c in chunks] == [spy, spy, 7]
        offsets = [c.metadata["stream_offset"] for c in chunks]
        assert offsets == [0, spy, 2 * spy]
        for chunk in chunks:
            assert chunk.data.shape[2:] == fitted_emulator.training_summary.grid.shape
            assert chunk.metadata["source"] == "emulator"
            assert "stream_phase" not in chunk.metadata

    def test_default_chunk_is_one_model_year(self, fitted_emulator):
        chunks = list(fitted_emulator.emulate_stream(1, rng=np.random.default_rng(2)))
        spy = fitted_emulator.training_summary.steps_per_year
        assert all(c.n_times == spy for c in chunks[:-1])

    def test_chunk_forcing_is_rebased_to_chunk_year(self, fitted_emulator):
        """Each chunk's forcing_per_step must match the whole record's."""
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
            np.testing.assert_array_equal(
                chunk.forcing_per_step(),
                reference[offset:offset + chunk.n_times],
            )
            np.testing.assert_array_equal(chunk.data, full.data[:, offset:offset + chunk.n_times])
            assert chunk.start_year == full.start_year + offset // spy

    def test_concatenated_stream_with_custom_forcing_matches_emulate_bit_exactly(
            self, fitted_emulator):
        """The bit-exact guarantee must hold off the training forcing."""
        spy = fitted_emulator.training_summary.steps_per_year
        n_times = 4 * spy
        forcing = np.array([1.0, 6.0, 2.0, 9.0])
        full = fitted_emulator.emulate(2, n_times=n_times, annual_forcing=forcing, rng=17)
        chunks = list(fitted_emulator.emulate_stream(
            2, n_times=n_times, annual_forcing=forcing, rng=17,
        ))
        assert len(chunks) == 4
        assert np.array_equal(np.concatenate([c.data for c in chunks], axis=1), full.data)

    def test_stream_forcing_indexed_by_absolute_time_across_chunks(
            self, fitted_emulator):
        """Every year chunk must see the whole record's trend.

        The reference is the trend predicted over the whole record in one
        call (absolute time) plus the standardized year stream:
        bit-exact equality proves each chunk indexes the forcing by
        absolute step, not by per-chunk time.
        """
        spy = fitted_emulator.training_summary.steps_per_year
        n_years = 5
        n_times = n_years * spy
        # Strong year-to-year jumps make any per-chunk re-indexing visible.
        forcing = np.array([1.0, 8.0, 2.0, 9.0, 3.0])

        mean_full = fitted_emulator.trend_model.predict(
            n_times, forcing, fitted_emulator.trend_fit
        )
        chunks = list(fitted_emulator.emulate_stream(
            1, n_times=n_times, annual_forcing=forcing,
            rng=np.random.default_rng(33),
        ))
        z_stream = fitted_emulator.spectral_model.generate_standardized_stream_multi(
            [np.random.default_rng(33)], n_years, spy, include_nugget=True,
        )
        assert len(chunks) == n_years
        for year, (chunk, z) in enumerate(zip(chunks, z_stream)):
            t_start = year * spy
            assert chunk.metadata["stream_offset"] == t_start
            reference = (
                mean_full[t_start:t_start + spy][None, ...]
                + fitted_emulator.scale.unstandardize(z)
            )
            assert np.array_equal(chunk.data, reference)

    def test_stream_bad_chunk_size(self, fitted_emulator):
        """A chunk is one model year: any other chunk_size is refused."""
        spy = fitted_emulator.training_summary.steps_per_year
        for chunk_size in (0, 5, spy + 1):
            with pytest.raises(ValueError, match="chunk_size"):
                fitted_emulator.emulate_stream(1, chunk_size=chunk_size)
        chunks = list(fitted_emulator.emulate_stream(1, rng=3, chunk_size=spy))
        assert np.array_equal(
            np.concatenate([c.data for c in chunks], axis=1),
            fitted_emulator.emulate(1, rng=3).data,
        )

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
        spy = fitted_emulator.training_summary.steps_per_year
        chunks = list(repro.emulate_stream(path, 1, n_times=spy + 2, rng=1))
        assert [c.n_times for c in chunks] == [spy, 2]
        with pytest.raises(TypeError, match="chunk_size"):
            repro.emulate_stream(path, 1, chunk_size=spy)


class TestScenarioForcingArguments:
    """emulate/emulate_stream accept scenario names and ScenarioSpec objects."""

    def test_emulate_accepts_scenario_name(self, fitted_emulator):
        spy = fitted_emulator.training_summary.steps_per_year
        by_name = fitted_emulator.emulate(1, n_times=3 * spy,
                                          annual_forcing="stabilisation",
                                          rng=np.random.default_rng(8))
        by_array = fitted_emulator.emulate(1, n_times=3 * spy,
                                           annual_forcing=resolve_scenario("stabilisation").annual_forcing(3),
                                           rng=np.random.default_rng(8))
        assert np.array_equal(by_name.data, by_array.data)

    def test_emulate_accepts_scenario_spec(self, fitted_emulator):
        spec = resolve_scenario("ssp-low", start_level=2.5)
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
