"""Bit-exactness tests of the one synthesis path and the fit's transforms.

Three independent guarantees are pinned here:

* the batch width ``B`` of the year-chunked multi-stream never changes
  an output bit: member ``b`` of a ``B``-stream equals the batch-of-one
  stream under ``rngs[b]`` for every chunk layout, ragged final chunks
  included, with the VAR history carried across chunk boundaries;
* the shared-generator entry points (``emulate`` / ``emulate_stream``
  with ``n_realizations=R``) are that same stream with one generator in
  every slot (``[rng] * R``);
* the fit's analysis (one forward pass over the ensemble) and its
  truncation residual (one inverse pass per member) equal the per-member
  and one-pass transforms bit for bit.
"""

import numpy as np
import pytest

import repro
from repro.util.compare import assert_states_bit_identical

SPY = 24  # steps_per_year of the shared fixtures
BATCH_WIDTHS = (1, 3, 5)
CHUNK_SIZES = (10, SPY, 3 * SPY)


def _standardized(model, rngs, n_times, chunk):
    chunks = list(model.generate_standardized_stream_multi(rngs, n_times, chunk))
    assert [t for t, _ in chunks] == list(range(0, n_times, chunk))
    return np.concatenate([c for _, c in chunks], axis=1)


class TestBatchSizeInvariance:
    def test_generate_standardized_stream_batch_sizes_bit_identical(
        self, fitted_emulator
    ):
        """Member ``b`` never depends on what else shares the batch."""
        model = fitted_emulator.spectral_model
        n_times = 60  # ragged final chunk at SPY, single chunk at 3 * SPY
        seeds = np.random.SeedSequence(77).spawn(max(BATCH_WIDTHS))
        for chunk in CHUNK_SIZES:
            alone = [
                _standardized(model, [np.random.default_rng(s)], n_times, chunk)[0]
                for s in seeds
            ]
            for width in BATCH_WIDTHS:
                stacked = _standardized(
                    model, [np.random.default_rng(s) for s in seeds[:width]],
                    n_times, chunk,
                )
                assert stacked.shape[:2] == (width, n_times)
                for b in range(width):
                    np.testing.assert_array_equal(stacked[b], alone[b])

    def test_emulate_batch_size_bit_identical(self, fitted_emulator):
        """``emulate(R, rng)`` == the single-chunk stream with ``[rng] * R``."""
        summary = fitted_emulator.training_summary
        for n_real in BATCH_WIDTHS:
            monolithic = fitted_emulator.emulate(
                n_realizations=n_real, n_times=30, rng=np.random.default_rng(3)
            )
            for chunk_size in (30, 99):  # chunk_size >= n_times: one chunk
                streamed = list(fitted_emulator.emulate_stream(
                    n_realizations=n_real, n_times=30,
                    rng=np.random.default_rng(3), chunk_size=chunk_size,
                ))
                assert len(streamed) == 1
                np.testing.assert_array_equal(streamed[0].data, monolithic.data)
            multi = list(fitted_emulator.generator().generate_stream_multi(
                [np.random.default_rng(3)] * n_real, 30, summary.forcing_annual,
                start_year=summary.start_year, chunk_size=30,
            ))
            np.testing.assert_array_equal(multi[0].data, monolithic.data)

    def test_emulate_stream_batch_size_bit_identical(self, fitted_emulator):
        """``emulate_stream(R, rng)`` == the multi-stream with ``[rng] * R``."""
        summary = fitted_emulator.training_summary
        for n_real in BATCH_WIDTHS:
            for chunk_size in CHUNK_SIZES:
                shared = fitted_emulator.emulate_stream(
                    n_realizations=n_real, n_times=60,
                    rng=np.random.default_rng(8), chunk_size=chunk_size,
                )
                rng = np.random.default_rng(8)
                multi = fitted_emulator.generator().generate_stream_multi(
                    [rng] * n_real, 60, summary.forcing_annual,
                    start_year=summary.start_year, chunk_size=chunk_size,
                )
                for shared_chunk, multi_chunk in zip(shared, multi, strict=True):
                    assert shared_chunk.metadata == multi_chunk.metadata
                    np.testing.assert_array_equal(
                        shared_chunk.data, multi_chunk.data
                    )

    def test_batch_size_validation(self, fitted_emulator):
        """A batch needs at least one member; the SHT cap is gone."""
        with pytest.raises(ValueError, match="n_realizations"):
            fitted_emulator.emulate(n_realizations=0)
        with pytest.raises(ValueError, match="n_realizations"):
            fitted_emulator.emulate_stream(n_realizations=-1)
        with pytest.raises(TypeError, match="batch_size"):
            fitted_emulator.emulate(n_realizations=2, batch_size=1)


class TestMultiStream:
    def test_multi_stream_bit_identical_to_serial_streams(self, fitted_emulator):
        """Member b of the stacked stream == a serial run under rngs[b]."""
        model = fitted_emulator.spectral_model
        n_times, chunk = 50, 24
        seeds = np.random.SeedSequence(11).spawn(4)

        stacked = _standardized(
            model, [np.random.default_rng(s) for s in seeds], n_times, chunk
        )
        assert stacked.shape[0] == len(seeds)
        for b, seed in enumerate(seeds):
            serial = _standardized(
                model, [np.random.default_rng(seed)], n_times, chunk
            )[0]
            np.testing.assert_array_equal(stacked[b], serial)

    def test_var_history_carried_across_chunks(self, fitted_emulator):
        """Every chunking of a record is one AR(P) recursion.

        With the nugget off the draw schedule does not depend on the
        chunk layout, so a chunked record equals the monolithic one up
        to GEMM reduction order; a stream that restarted its history at
        a chunk boundary would be off by O(1).
        """
        model = fitted_emulator.spectral_model
        n_times = 60

        def record(chunk):
            rngs = [np.random.default_rng(s) for s in (11, 12, 13)]
            chunks = model.generate_standardized_stream_multi(
                rngs, n_times, chunk, include_nugget=False
            )
            return np.concatenate([c for _, c in chunks], axis=1)

        monolithic = record(n_times)
        assert monolithic.shape[:2] == (3, n_times)
        for chunk in CHUNK_SIZES:
            np.testing.assert_allclose(
                record(chunk), monolithic, rtol=0.0, atol=1e-10
            )

    def test_generator_multi_stream_matches_serial_chunks(self, fitted_emulator):
        """Full pipeline (trend + scale restored), chunk by chunk."""
        generator = fitted_emulator.generator()
        summary = fitted_emulator.training_summary
        forcing = summary.forcing_annual
        n_times, chunk = 40, 16
        seeds = np.random.SeedSequence(23).spawn(3)

        multi = list(generator.generate_stream_multi(
            [np.random.default_rng(s) for s in seeds], n_times, forcing,
            start_year=summary.start_year, chunk_size=chunk,
        ))
        for b, seed in enumerate(seeds):
            serial = list(generator.generate_stream(
                1, n_times, forcing, rng=np.random.default_rng(seed),
                start_year=summary.start_year, chunk_size=chunk,
            ))
            assert len(serial) == len(multi)
            for serial_chunk, multi_chunk in zip(serial, multi):
                assert serial_chunk.metadata == multi_chunk.metadata
                assert serial_chunk.start_year == multi_chunk.start_year
                np.testing.assert_array_equal(
                    multi_chunk.data[b], serial_chunk.data[0]
                )

    def test_multi_stream_global_means_bit_identical(self, fitted_emulator):
        """The campaign's collected reduction is per-member bit-exact too."""
        generator = fitted_emulator.generator()
        summary = fitted_emulator.training_summary
        seeds = np.random.SeedSequence(31).spawn(3)
        multi = list(generator.generate_stream_multi(
            [np.random.default_rng(s) for s in seeds], 24,
            summary.forcing_annual, start_year=summary.start_year,
        ))
        for b, seed in enumerate(seeds):
            serial = list(generator.generate_stream(
                1, 24, summary.forcing_annual, rng=np.random.default_rng(seed),
                start_year=summary.start_year,
            ))
            for serial_chunk, multi_chunk in zip(serial, multi):
                np.testing.assert_array_equal(
                    multi_chunk.global_mean_series()[b],
                    serial_chunk.global_mean_series()[0],
                )

    @pytest.mark.parametrize("n_members, n_times", [(1, 6), (5, 6), (3, 40)])
    def test_spectral_series_is_per_member(self, fitted_emulator, rng,
                                           n_members, n_times):
        """One pass over the ensemble == each member analysed alone, also
        when the pass crosses the transform's 32-slice analysis blocks."""
        model = fitted_emulator.spectral_model
        standardized = rng.standard_normal(
            (n_members, n_times) + fitted_emulator.training_summary.grid.shape
        )
        series = model.spectral_series(standardized)
        for member in range(len(standardized)):
            np.testing.assert_array_equal(
                model.spectral_series(standardized[member:member + 1])[0],
                series[member],
            )

    @pytest.mark.parametrize("n_members, n_times", [(1, 5), (4, 5), (3, 40)])
    def test_truncation_residual_equals_one_pass_reconstruction(
        self, fitted_emulator, rng, n_members, n_times
    ):
        """The member-by-member reconstruction == one inverse pass."""
        model = fitted_emulator.spectral_model
        standardized = rng.standard_normal(
            (n_members, n_times) + fitted_emulator.training_summary.grid.shape
        )
        spectral = model.spectral_series(standardized)
        np.testing.assert_array_equal(
            model.truncation_residual(standardized, spectral),
            standardized - model.plan.inverse_realform(spectral),
        )

    def test_facade_fit_state_equals_the_emulator_fit(self, small_ensemble,
                                                      fitted_emulator):
        """``repro.fit`` with keyword overrides is the class fit, bit for bit."""
        facade = repro.fit(small_ensemble, lmax=8, var_order=1, tile_size=16,
                           n_harmonics=2, precision_variant="DP",
                           rho_grid=(0.3, 0.7))
        assert_states_bit_identical(fitted_emulator.state_dict(),
                                    facade.state_dict())

    def test_multi_stream_validation(self, fitted_emulator):
        model = fitted_emulator.spectral_model
        with pytest.raises(ValueError, match="at least one generator"):
            list(model.generate_standardized_stream_multi([], 10, 5))
        generator = fitted_emulator.generator()
        with pytest.raises(ValueError, match="at least one generator"):
            generator.generate_stream_multi(
                [], 10, fitted_emulator.training_summary.forcing_annual
            )
        with pytest.raises(ValueError, match="forcing covers"):
            generator.generate_stream_multi(
                [np.random.default_rng(0)], 10_000,
                fitted_emulator.training_summary.forcing_annual,
            )
