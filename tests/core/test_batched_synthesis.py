"""Bit-exactness tests of the one synthesis path and the fit's transforms.

Three independent guarantees are pinned here:

* the batch width ``B`` of the year-by-year multi-stream never changes
  an output bit: member ``b`` of a ``B``-stream equals the batch-of-one
  stream under ``rngs[b]``, ragged final years included, with the VAR
  history carried across years;
* the seeded entry points (``emulate`` / ``emulate_stream`` with
  ``n_realizations=R`` and an int ``rng``) are that same stream with
  member ``r`` seeded by ``SeedSequence(rng, spawn_key=(r,))``;
* the fit's analysis (one forward pass over the ensemble) and its
  truncation residual (one inverse pass per member) equal the per-member
  and one-pass transforms bit for bit.
"""

import numpy as np
import pytest

import repro
from factor_state import assert_states_bit_identical  # tests/ is on sys.path (rootdir layout)

SPY = 24  # steps_per_year of the shared fixtures
BATCH_WIDTHS = (1, 3, 5)


def _standardized(model, rngs, n_years, include_nugget=True):
    years = list(model.generate_standardized_stream_multi(
        rngs, n_years, SPY, include_nugget=include_nugget
    ))
    assert len(years) == n_years
    return np.concatenate(years, axis=1)


def _member_rngs(seed, n_members):
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        for r in range(n_members)
    ]


class TestBatchSizeInvariance:
    def test_generate_standardized_stream_batch_sizes_bit_identical(
        self, fitted_emulator
    ):
        """Member ``b`` never depends on what else shares the batch."""
        model = fitted_emulator.spectral_model
        seeds = np.random.SeedSequence(77).spawn(max(BATCH_WIDTHS))
        for n_years in (1, 3):
            alone = [
                _standardized(model, [np.random.default_rng(s)], n_years)[0]
                for s in seeds
            ]
            for width in BATCH_WIDTHS:
                stacked = _standardized(
                    model, [np.random.default_rng(s) for s in seeds[:width]], n_years,
                )
                assert stacked.shape[:2] == (width, n_years * SPY)
                for b in range(width):
                    np.testing.assert_array_equal(stacked[b], alone[b])

    def test_emulate_batch_size_bit_identical(self, fitted_emulator):
        """``emulate(R, rng=s)`` member ``r`` == the one-member call seeded
        ``SeedSequence(s, spawn_key=(r,))`` == the multi-stream."""
        summary = fitted_emulator.training_summary
        alone = [
            fitted_emulator.emulate(1, n_times=30, rng=rng).data[0]
            for rng in _member_rngs(3, max(BATCH_WIDTHS))
        ]
        for n_real in BATCH_WIDTHS:
            batch = fitted_emulator.emulate(n_realizations=n_real, n_times=30, rng=3)
            for r in range(n_real):
                np.testing.assert_array_equal(batch.data[r], alone[r])
            multi = list(fitted_emulator.generator().generate_stream_multi(
                _member_rngs(3, n_real), 30, summary.forcing_annual,
                start_year=summary.start_year, chunk_size=SPY,
            ))
            np.testing.assert_array_equal(
                np.concatenate([c.data for c in multi], axis=1), batch.data
            )

    def test_emulate_stream_batch_size_bit_identical(self, fitted_emulator):
        """``emulate_stream(R, rng=s)`` == the multi-stream under the member seeds."""
        summary = fitted_emulator.training_summary
        for n_real in BATCH_WIDTHS:
            seeded = fitted_emulator.emulate_stream(n_realizations=n_real, n_times=60, rng=8)
            multi = fitted_emulator.generator().generate_stream_multi(
                _member_rngs(8, n_real), 60, summary.forcing_annual,
                start_year=summary.start_year,
            )
            for seeded_chunk, multi_chunk in zip(seeded, multi, strict=True):
                assert seeded_chunk.metadata == multi_chunk.metadata
                np.testing.assert_array_equal(seeded_chunk.data, multi_chunk.data)

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
        seeds = np.random.SeedSequence(11).spawn(4)

        stacked = _standardized(model, [np.random.default_rng(s) for s in seeds], 3)
        assert stacked.shape[0] == len(seeds)
        for b, seed in enumerate(seeds):
            serial = _standardized(model, [np.random.default_rng(seed)], 3)[0]
            np.testing.assert_array_equal(stacked[b], serial)

    def test_var_history_carried_across_chunks(self, fitted_emulator):
        """The years of a record are one AR(P) recursion.

        With the nugget off a stream draws nothing but its innovations,
        so its years equal one VAR simulation over the whole record's
        normals up to GEMM reduction order; a stream that restarted its
        history at a year boundary would be off by O(1).
        """
        model = fitted_emulator.spectral_model
        n_years, k = 3, model.cholesky.n
        seeds = (11, 12, 13)
        streamed = _standardized(
            model, [np.random.default_rng(s) for s in seeds], n_years, include_nugget=False
        )
        z = np.stack([np.random.default_rng(s).standard_normal((n_years * SPY, k)) for s in seeds])
        xi = model.cholesky.correlate(z.reshape(-1, k)).reshape(z.shape)
        p = model.var_order
        initial = np.broadcast_to(model.initial_state[-p:], (len(seeds), p, k))
        whole = model.plan.inverse_realform(model.var.simulate(xi, initial=initial))
        assert streamed.shape[:2] == (len(seeds), n_years * SPY)
        np.testing.assert_allclose(streamed, whole, rtol=0.0, atol=1e-10)

    def test_generator_multi_stream_matches_serial_chunks(self, fitted_emulator):
        """Full pipeline (trend + scale restored), year by year."""
        generator = fitted_emulator.generator()
        summary = fitted_emulator.training_summary
        forcing = summary.forcing_annual
        n_times = 40
        seeds = np.random.SeedSequence(23).spawn(3)

        multi = list(generator.generate_stream_multi(
            [np.random.default_rng(s) for s in seeds], n_times, forcing,
            start_year=summary.start_year,
        ))
        assert [c.n_times for c in multi] == [SPY, n_times - SPY]
        for b, seed in enumerate(seeds):
            serial = list(generator.generate_stream_multi(
                [np.random.default_rng(seed)], n_times, forcing,
                start_year=summary.start_year,
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
            serial = list(generator.generate_stream_multi(
                [np.random.default_rng(seed)], 24, summary.forcing_annual,
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
            list(model.generate_standardized_stream_multi([], 1, SPY))
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

    def test_one_generator_in_two_slots_is_refused(self, fitted_emulator):
        """``[rng] * B`` would correlate the members, so it raises."""
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="two slots"):
            fitted_emulator.generator().generate_stream_multi(
                [rng, np.random.default_rng(1), rng], 10,
                fitted_emulator.training_summary.forcing_annual,
            )
