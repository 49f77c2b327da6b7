"""Tests of the on-demand emulation service.

The bit-exactness contract (see :mod:`repro.serving.service`): served
fields equal the year-by-year stream of realization ``r`` (the
concatenated ``emulate_stream``) bit for bit on every path — and
therefore member ``r`` of direct ``emulate(rng=seed)`` for every request.
"""

import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.core.window import SpatialWindow
from repro.scenarios import resolve_scenario
from repro.serving.request import FieldRequest
from repro.serving import service as service_module
from repro.serving.service import EmulationService
from repro.storage.chunkstore import ChunkStore

SPY = 24  # steps_per_year of the shared fixture ensemble


def canonical_stream(emulator, scenario, realization, n_years, seed=0,
                     include_nugget=True):
    """The reference: the canonical year-chunked stream, realization ``r``."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(realization,))
    )
    chunks = emulator.emulate_stream(
        n_realizations=1, n_times=n_years * SPY, annual_forcing=scenario,
        rng=rng, include_nugget=include_nugget,
    )
    return np.concatenate([c.data for c in chunks], axis=1)[0]


def wait_until(condition):
    """Poll ``condition`` for up to 30 s; the held flights must reach it."""
    deadline = time.monotonic() + 30.0
    while not condition():
        assert time.monotonic() < deadline, "the flights never reached the state"
        time.sleep(0.001)


@pytest.fixture()
def service(fitted_emulator):
    return repro.serve(fitted_emulator, seed=0)


class TestBitExactness:
    def test_cold_path_matches_canonical_stream(self, fitted_emulator, service):
        request = FieldRequest("ssp-high", realization=3, year_start=0, year_stop=3)
        served = service.get(request)
        reference = canonical_stream(fitted_emulator, "ssp-high", 3, 3)
        assert served.shape == (3 * SPY,) + fitted_emulator.training_summary.grid.shape
        assert np.array_equal(served, reference)

    def test_cached_path_is_bit_identical_to_cold(self, fitted_emulator, service):
        request = FieldRequest("ssp-low", realization=1, year_start=0, year_stop=2)
        cold = service.get(request)
        hot = service.get(request)
        assert np.array_equal(cold, hot)
        assert np.array_equal(hot, canonical_stream(fitted_emulator, "ssp-low", 1, 2))
        stats = service.stats()
        assert stats["request_hits"] == 1 and stats["request_misses"] == 1

    @pytest.mark.parametrize("scenario", sorted(repro.list_scenarios()))
    def test_every_scenario_serves_its_canonical_stream(self, fitted_emulator,
                                                        service, scenario):
        request = FieldRequest(scenario, realization=1, year_start=0, year_stop=2)
        reference = canonical_stream(fitted_emulator, scenario, 1, 2)
        assert np.array_equal(service.get(request), reference)  # cold
        assert np.array_equal(service.get(request), reference)  # hot
        stats = service.stats()
        assert stats["request_hits"] == 1
        assert stats["synthesis"]["chunks"] == 2

    def test_single_year_request_equals_direct_emulate(self, fitted_emulator, service):
        request = FieldRequest("ssp-high", realization=5)
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(5,)))
        direct = fitted_emulator.emulate(
            1, n_times=SPY, annual_forcing="ssp-high", rng=rng
        )
        assert np.array_equal(service.get(request), direct.data[0])

    def test_multi_year_nuggeted_request_equals_direct_emulate(self, fitted_emulator, service):
        request = FieldRequest("ssp-high", realization=2, year_start=0, year_stop=3)
        direct = fitted_emulator.emulate(3, n_times=3 * SPY, annual_forcing="ssp-high", rng=0)
        assert np.array_equal(service.get(request), direct.data[2])

    def test_nugget_free_request_equals_direct_emulate(self, fitted_emulator, service):
        request = FieldRequest("ssp-high", realization=2, year_start=0,
                               year_stop=3, include_nugget=False)
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(2,)))
        direct = fitted_emulator.emulate(
            1, n_times=3 * SPY, annual_forcing="ssp-high", rng=rng,
            include_nugget=False,
        )
        assert np.array_equal(service.get(request), direct.data[0])

    def test_year_subrange_is_a_slice_of_the_full_record(self, fitted_emulator, service):
        reference = canonical_stream(fitted_emulator, "ssp-high", 0, 3)
        request = FieldRequest("ssp-high", realization=0, year_start=1, year_stop=3)
        assert np.array_equal(service.get(request), reference[SPY:3 * SPY])

    def test_windowed_request_is_a_spatial_slice(self, fitted_emulator, service):
        window = SpatialWindow(lat=(2, 6), lon=(1, 9))
        request = FieldRequest("ssp-high", realization=0, year_start=0,
                               year_stop=2, window=window)
        reference = canonical_stream(fitted_emulator, "ssp-high", 0, 2)
        served = service.get(request)
        assert served.shape == (2 * SPY, 4, 8)
        assert np.array_equal(served, reference[:, 2:6, 1:9])

    def test_extension_resumes_bit_identically(self, fitted_emulator, service):
        first = FieldRequest("ssp-medium", realization=4, year_start=0, year_stop=2)
        service.get(first)
        extension = FieldRequest("ssp-medium", realization=4, year_start=2,
                                 year_stop=4)
        served = service.get(extension)
        reference = canonical_stream(fitted_emulator, "ssp-medium", 4, 4)
        assert np.array_equal(served, reference[2 * SPY:4 * SPY])
        assert service.stats()["synthesis"]["stream_resumes"] == 1

    def test_realizations_are_independent_campaign_streams(self, fitted_emulator, service):
        # The service's realization r stream is the campaign's run-r stream
        # for a one-scenario campaign under the same seed.
        manifest = repro.run_campaign(
            fitted_emulator, ["ssp-high"], 2, n_times=2 * SPY, seed=0,
            collect="fields",
        )
        for realization in (0, 1):
            request = FieldRequest("ssp-high", realization=realization,
                                   year_start=0, year_stop=2)
            assert np.array_equal(
                service.get(request),
                manifest.run("ssp-high", realization).collected,
            )

    def test_alias_and_spec_spellings_share_cache_entries(self, service):
        served = service.get(FieldRequest("ssp-high", realization=0))
        by_alias = service.get(FieldRequest("ssp5-8.5", realization=0))
        by_spec = service.get(
            FieldRequest(resolve_scenario("ssp-high"), realization=0)
        )
        assert np.array_equal(served, by_alias)
        assert np.array_equal(served, by_spec)
        stats = service.stats()
        assert stats["synthesis"]["flights"] == 1
        assert stats["request_hits"] == 2

    def test_served_array_is_freely_mutable(self, service):
        request = FieldRequest("constant", realization=0)
        first = service.get(request)
        first[:] = 0.0
        again = service.get(request)
        assert not np.array_equal(first, again)


class TestHitPathCost:
    def test_hot_gets_run_neither_the_factory_nor_sha256(
        self, fitted_emulator, monkeypatch
    ):
        import hashlib

        from repro.scenarios.registry import SCENARIOS, register_scenario

        factory_calls = []
        high = SCENARIOS["ssp-high"].factory

        def counted(start_level: float = 2.5):
            factory_calls.append(start_level)
            return high(start_level)

        register_scenario("hit-path-cost", counted)
        try:
            service = repro.serve(fitted_emulator, seed=0)
            request = FieldRequest("hit-path-cost", realization=1, year_stop=2)
            cold = service.get(request)
            assert len(factory_calls) <= 2  # the address, then the flight

            sha_calls = []
            sha256 = hashlib.sha256

            def counted_sha(*args, **kwargs):
                sha_calls.append(args)
                return sha256(*args, **kwargs)

            monkeypatch.setattr(hashlib, "sha256", counted_sha)
            del factory_calls[:]
            for _ in range(20):
                hot = service.get(
                    FieldRequest("hit-path-cost", realization=1, year_stop=2)
                )
                assert np.array_equal(hot, cold)
            assert factory_calls == []
            assert sha_calls == []
            assert service.stats()["request_hits"] == 20
        finally:
            del SCENARIOS["hit-path-cost"]


class TestYearStateMemo:
    """A flight starts from the latest year-start state the service
    remembers for its (nugget flag, realization), under any scenario, and
    leaves the start state of every year it passes."""

    @staticmethod
    def synthesized(service):
        synthesis = service.stats()["synthesis"]
        return synthesis["chunks"], synthesis["stream_resumes"]

    def test_a_sweep_over_many_realizations_resumes_each_at_its_year(
        self, fitted_emulator, service
    ):
        n_realizations, n_years = 10, 2
        for realization in range(n_realizations):
            for year in range(n_years):
                service.get(FieldRequest("ssp-low", realization=realization,
                                         year_start=year))
        for realization in range(n_realizations):
            chunks, resumes = self.synthesized(service)
            served = service.get(FieldRequest("ssp-low", realization=realization,
                                              year_start=n_years))
            assert self.synthesized(service) == (chunks + 1, resumes + 1)
            reference = canonical_stream(fitted_emulator, "ssp-low", realization,
                                         n_years + 1)
            assert np.array_equal(served, reference[n_years * SPY:])

    def test_year_40_after_years_0_to_39_synthesizes_one_chunk(
        self, fitted_emulator, service
    ):
        service.get(FieldRequest("ssp-medium", realization=1, year_start=0,
                                 year_stop=40))
        assert self.synthesized(service) == (40, 0)
        served = service.get(FieldRequest("ssp-medium", realization=1, year_start=40))
        assert self.synthesized(service) == (41, 1)
        reference = canonical_stream(fitted_emulator, "ssp-medium", 1, 41)
        assert np.array_equal(served, reference[40 * SPY:])

    def test_another_scenario_starts_from_the_memo_bit_identically(
        self, fitted_emulator, service
    ):
        service.get(FieldRequest("ssp-low", realization=3, year_start=0, year_stop=3))
        served = service.get(FieldRequest("ssp-high", realization=3, year_start=3))
        assert self.synthesized(service) == (4, 1)
        reference = canonical_stream(fitted_emulator, "ssp-high", 3, 4)
        assert np.array_equal(served, reference[3 * SPY:])

    def test_a_nugget_free_request_never_starts_from_a_nuggeted_state(
        self, fitted_emulator, service
    ):
        service.get(FieldRequest("ssp-low", realization=2, year_start=0, year_stop=2))
        served = service.get(FieldRequest("ssp-low", realization=2, year_start=2,
                                          include_nugget=False))
        assert self.synthesized(service) == (5, 0)
        reference = canonical_stream(fitted_emulator, "ssp-low", 2, 3,
                                     include_nugget=False)
        assert np.array_equal(served, reference[2 * SPY:])

    def test_the_memo_stays_under_its_bound_and_an_evicted_year_resynthesizes(
        self, fitted_emulator, service, monkeypatch
    ):
        service.get(FieldRequest("ssp-low", realization=0))
        state_bytes = service._states.bytes  # one year-start state
        monkeypatch.setattr(service_module, "_STATE_MEMO_BYTES", 3 * state_bytes)
        # Three terms of Eq. 1 too, so year 2's sigma * Z is gone as well.
        term_bytes = service._terms.bytes // 2  # one sigma * Z and one m_t
        monkeypatch.setattr(service_module, "_TERM_MEMO_BYTES", 3 * term_bytes)
        service = repro.serve(fitted_emulator, seed=0)
        for year in range(8):
            service.get(FieldRequest("ssp-low", realization=0, year_start=year))
            assert service._states.bytes <= 3 * state_bytes
        assert self.synthesized(service) == (8, 7)
        # Only the start states of years 6, 7 and 8 are left: year 2 of
        # another scenario restarts the stream at year 0.
        served = service.get(FieldRequest("ssp-high", realization=0, year_start=2))
        assert self.synthesized(service) == (11, 7)
        reference = canonical_stream(fitted_emulator, "ssp-high", 0, 3)
        assert np.array_equal(served, reference[2 * SPY:])


class TestTermMemo:
    """A field is ``m_t + sigma * Z_t`` (Eq. 1) and the forcing enters only
    ``m_t``: a realization-year's ``sigma * Z_t`` drawn under one scenario
    is restored under another with one addition, and ``m_t`` is computed
    once per (stream, year) for every realization."""

    @pytest.fixture()
    def draws(self, monkeypatch):
        """The ``(n_years, start given)`` of every pass of the year loop."""
        from repro.core.spectral_model import SpectralStochasticModel

        calls = []
        years_from = SpectralStochasticModel._years_from

        def counted(self, rngs, n_years, *args):
            calls.append((n_years, args[-2] is not None))
            return years_from(self, rngs, n_years, *args)

        monkeypatch.setattr(SpectralStochasticModel, "_years_from", counted)
        return calls

    @staticmethod
    def synthesis(service):
        synthesis = service.stats()["synthesis"]
        return synthesis["chunks"], synthesis["restored"], synthesis["stream_resumes"]

    def test_another_scenario_of_a_drawn_year_draws_nothing(
        self, fitted_emulator, service, draws
    ):
        service.get(FieldRequest("ssp-low", realization=1, year_start=2))
        assert draws == [(3, False)]
        served = {}
        for n, scenario in enumerate(("ssp-medium", "ssp-high"), start=1):
            served[scenario] = service.get(FieldRequest(scenario, realization=1,
                                                        year_start=2))
            assert draws == [(3, False)]
            assert self.synthesis(service) == (3 + n, n, 0)
        for scenario, array in served.items():
            reference = canonical_stream(fitted_emulator, scenario, 1, 3)
            assert np.array_equal(array, reference[2 * SPY:])

    def test_a_nugget_flag_never_uses_the_other_flags_terms(
        self, fitted_emulator, service, draws
    ):
        for include_nugget in (True, False):
            service.get(FieldRequest("ssp-low", realization=2,
                                     include_nugget=include_nugget))
        served = {
            include_nugget: service.get(FieldRequest(
                "ssp-high", realization=2, include_nugget=include_nugget))
            for include_nugget in (False, True)
        }
        # Two draws, one per flag; each ssp-high year used its own flag's term.
        assert draws == [(1, False), (1, False)]
        assert self.synthesis(service) == (4, 2, 0)
        for include_nugget, array in served.items():
            reference = canonical_stream(fitted_emulator, "ssp-high", 2, 1,
                                         include_nugget=include_nugget)
            assert np.array_equal(array, reference)

    def test_remembered_years_are_restored_and_the_rest_drawn_from_their_state(
        self, fitted_emulator, service, draws
    ):
        service.get(FieldRequest("ssp-low", realization=4, year_start=0, year_stop=2))
        served = service.get(FieldRequest("ssp-high", realization=4, year_start=0,
                                          year_stop=4))
        # Years 0-1 restored; years 2-3 drawn in one pass from year 2's state.
        assert draws == [(2, False), (2, True)]
        assert self.synthesis(service) == (6, 2, 1)
        assert np.array_equal(served, canonical_stream(fitted_emulator, "ssp-high", 4, 4))

    def test_the_mean_is_computed_once_per_stream_year(
        self, fitted_emulator, service, monkeypatch
    ):
        from repro.core.trend import MeanTrendModel

        t_starts = []
        predict = MeanTrendModel.predict

        def counted(self, n_times, annual_forcing, fit=None, t_start=0):
            t_starts.append(t_start)
            return predict(self, n_times, annual_forcing, fit, t_start)

        monkeypatch.setattr(MeanTrendModel, "predict", counted)
        for realization in range(5):
            service.get(FieldRequest("ssp-medium", realization=realization,
                                     year_start=0, year_stop=2))
        assert t_starts == [0, SPY]
        monkeypatch.setattr(MeanTrendModel, "predict", predict)
        for realization in range(5):
            served = service.get(FieldRequest("ssp-medium", realization=realization,
                                              year_start=0, year_stop=2))
            assert np.array_equal(
                served, canonical_stream(fitted_emulator, "ssp-medium", realization, 2)
            )

    def test_a_restored_chunk_is_written_through(self, fitted_emulator, tmp_path):
        service = repro.serve(fitted_emulator, seed=0, store=tmp_path / "store")
        service.get(FieldRequest("ssp-low", realization=3, year_start=1))
        restored = service.get(FieldRequest("ssp-high", realization=3, year_start=1))
        assert service.stats()["synthesis"]["restored"] == 1

        fresh = repro.serve(fitted_emulator, seed=0, store=tmp_path / "store")
        stored = fresh.get(FieldRequest("ssp-high", realization=3, year_start=1))
        stats = fresh.stats()
        assert stats["synthesis"]["flights"] == 0
        assert stats["store_chunk_hits"] == 1
        assert np.array_equal(stored, restored)
        assert np.array_equal(
            stored, canonical_stream(fitted_emulator, "ssp-high", 3, 2)[SPY:]
        )

    def test_the_memo_stays_under_its_bound_and_an_evicted_year_is_drawn_again(
        self, fitted_emulator, service, monkeypatch, draws
    ):
        service.get(FieldRequest("ssp-low", realization=0))
        term_bytes = service._terms.bytes // 2  # one sigma * Z and one m_t
        monkeypatch.setattr(service_module, "_TERM_MEMO_BYTES", 4 * term_bytes)
        service = repro.serve(fitted_emulator, seed=0)
        del draws[:]
        for year in range(6):
            service.get(FieldRequest("ssp-low", realization=0, year_start=year))
            assert service._terms.bytes <= 4 * term_bytes
        assert service.stats()["term_memo"]["evictions"] > 0
        # Year 5's sigma * Z is remembered and year 0's evicted: drawn again.
        served = {
            year: service.get(FieldRequest("ssp-high", realization=0, year_start=year))
            for year in (5, 0)
        }
        assert len(draws) == 7
        assert draws[-1] == (1, False)
        assert service.stats()["synthesis"]["restored"] == 1
        for year, array in served.items():
            reference = canonical_stream(fitted_emulator, "ssp-high", 0, year + 1)
            assert np.array_equal(array, reference[year * SPY:])


class TestCacheManagement:
    def test_tiny_cache_stays_correct(self, fitted_emulator):
        # A cache smaller than one chunk evicts everything immediately;
        # requests must still serve bit-identical fields.
        service = EmulationService(fitted_emulator, seed=0, cache_bytes=1024)
        request = FieldRequest("ssp-high", realization=0, year_start=0, year_stop=2)
        reference = canonical_stream(fitted_emulator, "ssp-high", 0, 2)
        assert np.array_equal(service.get(request), reference)
        assert np.array_equal(service.get(request), reference)
        stats = service.stats()["chunk_cache"]
        assert stats["evictions"] > 0
        assert stats["bytes"] <= 1024

    def test_cache_bytes_budget_is_respected(self, fitted_emulator):
        grid = fitted_emulator.training_summary.grid
        chunk_bytes = SPY * grid.npoints * 8
        service = EmulationService(
            fitted_emulator, seed=0, cache_bytes=2 * chunk_bytes
        )
        service.get(FieldRequest("ssp-high", realization=0, year_start=0,
                                 year_stop=4))
        stats = service.stats()["chunk_cache"]
        assert stats["bytes"] <= 2 * chunk_bytes
        assert stats["entries"] == 2
        assert stats["evictions"] == 2
        # A budget is None or a non-negative int; nothing is truncated.
        for bad in (-1, 1.5, "auto", True):
            with pytest.raises(ValueError, match="cache_bytes"):
                EmulationService(fitted_emulator, cache_bytes=bad)
        with pytest.raises(ValueError, match="cache_bytes"):
            repro.serve(fitted_emulator, cache_bytes="auto")

    def test_rejects_unfitted_emulator(self):
        with pytest.raises(RuntimeError, match="fitted"):
            EmulationService(repro.ClimateEmulator())

    def test_validates_request_type_and_window(self, service):
        with pytest.raises(TypeError, match="FieldRequest"):
            service.get("ssp-high")
        huge = FieldRequest("ssp-high", window=SpatialWindow(lat=(0, 10_000)))
        with pytest.raises(ValueError, match="lat window"):
            service.get(huge)

    def test_stats_shape(self, service):
        service.get(FieldRequest("ssp-high"))
        stats = service.stats()
        assert stats["seed"] == 0
        assert stats["steps_per_year"] == SPY
        assert stats["artifact_bytes"] > 0
        assert stats["served_bytes"] > 0
        assert stats["store"] is None
        assert stats["synthesis"]["chunks"] == 1


class TestTelemetry:
    def test_every_get_records_one_serve_get_span(self, service):
        request = FieldRequest("ssp-low", realization=0)
        repro.obs.clear_trace()
        with repro.obs.tracing():
            service.get(request)
            service.get(request)
            service.get(FieldRequest("ssp-high", realization=1))
        gets = [r for r in repro.obs.trace_records() if r["name"] == "serve.get"]
        repro.obs.clear_trace()
        assert [r["attrs"]["outcome"] for r in gets] == ["miss", "hit", "miss"]
        assert all(r["seconds"] > 0.0 for r in gets)


    def test_stats_are_a_detached_snapshot(self, service):
        service.get(FieldRequest("ssp-low", realization=0))
        first = service.stats()
        first["requests"] = -1
        first["chunk_cache"]["hits"] = -1
        first["synthesis"]["flights"] = -1
        again = service.stats()
        assert again["requests"] >= 1
        assert again["chunk_cache"]["hits"] >= 0
        assert again["synthesis"]["flights"] >= 1

    def test_misses_and_hits_partition_the_requests(self, fitted_emulator):
        service = repro.serve(fitted_emulator, seed=0)
        cold = FieldRequest("ssp-low", realization=0, year_start=0, year_stop=2)
        part = FieldRequest("ssp-low", realization=0, year_start=1, year_stop=3)
        served = [service.get(r) for r in (cold, cold, part, part)]
        stats = service.stats()
        assert stats["requests"] == 4
        assert (stats["request_misses"], stats["request_hits"]) == (2, 2)
        assert stats["served_bytes"] == sum(a.nbytes for a in served)

class TestPersistentTier:
    def test_write_through_then_read_through(self, fitted_emulator, tmp_path):
        request = FieldRequest("ssp-high", realization=1, year_start=0, year_stop=2)
        first = repro.serve(fitted_emulator, seed=0, store=tmp_path / "store")
        served = first.get(request)
        # A brand-new service over the same store serves without synthesis.
        second = repro.serve(fitted_emulator, seed=0, store=tmp_path / "store")
        again = second.get(request)
        assert np.array_equal(served, again)
        stats = second.stats()
        assert stats["synthesis"]["flights"] == 0
        assert stats["store_chunk_hits"] == 2

    def test_lossless_store_preserves_bit_exactness(self, fitted_emulator, tmp_path):
        store = ChunkStore(tmp_path / "store", encoding="float64")
        service = repro.serve(fitted_emulator, seed=0, store=store)
        request = FieldRequest("ssp-low", realization=0, year_start=0, year_stop=2)
        service.get(request)
        fresh = repro.serve(fitted_emulator, seed=0, store=store)
        reference = canonical_stream(fitted_emulator, "ssp-low", 0, 2)
        assert np.array_equal(fresh.get(request), reference)
        assert store.stats()["lossless"] is True
        assert store.max_abs_error() == 0.0

    @pytest.mark.parametrize("entry", [
        "serve-path", "serve-handle", "service", "campaign", "reader",
    ])
    def test_a_lossy_store_is_refused_by_name_before_any_work(
        self, fitted_emulator, tmp_path, entry
    ):
        """One open rule: every entry point refuses an ``int16`` root,
        naming the encoding, before it synthesizes or writes anything."""
        root = tmp_path / "int16"
        request = FieldRequest("ssp-low", realization=0)
        address = request.chunk_addresses()[0]
        quantized = ChunkStore(root, encoding="int16")
        quantized.put(address, canonical_stream(fitted_emulator, "ssp-low", 0, 1))

        def listing():
            return sorted((p.name, p.stat().st_mtime_ns) for p in root.rglob("*"))

        before = listing()
        repro.obs.clear_trace()
        with repro.obs.tracing(), pytest.raises(ValueError, match="int16") as refusal:
            if entry == "serve-path":
                repro.serve(fitted_emulator, store=root)
            elif entry == "serve-handle":
                repro.serve(fitted_emulator, store=quantized)
            elif entry == "service":
                EmulationService(fitted_emulator, store=quantized)
            elif entry == "campaign":
                repro.run_campaign(fitted_emulator, ["ssp-low"], n_times=SPY,
                                   store=quantized, collect="none")
            else:
                manifest = repro.run_campaign(fitted_emulator, ["ssp-low"],
                                              n_times=SPY, collect="none")
                repro.obs.clear_trace()
                list(repro.iter_chunk_arrays(manifest, store=root))
        names = {record["name"] for record in repro.obs.trace_records()}
        repro.obs.clear_trace()
        assert not any(name.startswith(("generate.", "serve.")) for name in names)
        assert "chunkstore.commit" not in names
        assert listing() == before
        # The advice is the refusal itself, never a reopen that is refused too.
        message = str(refusal.value)
        assert "the lossy 'int16' encoding" in message and "reopen" not in message

    def test_a_root_of_another_grid_is_refused_not_served(
        self, fitted_emulator, pipeline, tmp_path
    ):
        """An L = 8 service and campaign reader over a root an L = 10
        artifact wrote: the stored chunk raises, naming its address and
        both shapes, and is never cached or concatenated."""
        other = pipeline[1]
        root = tmp_path / "store"
        repro.run_campaign(other, ["ssp-low"], n_times=SPY, store=root, collect="none")
        # The same campaign at L = 8, written to its own root: its manifest
        # names the addresses the L = 10 root holds under another grid.
        manifest = repro.run_campaign(fitted_emulator, ["ssp-low"], n_times=SPY,
                                      store=tmp_path / "own", collect="none")
        address = manifest.runs[0].chunk_addresses[0]
        stored = (SPY, *other.training_summary.grid.shape)
        wanted = (SPY, *fitted_emulator.training_summary.grid.shape)
        assert stored != wanted

        service = repro.serve(fitted_emulator, seed=0, store=root)
        mixed = FieldRequest("ssp-low", realization=0, year_start=0, year_stop=2)
        for read in (lambda: service.get(mixed),
                     lambda: list(repro.iter_chunk_arrays(manifest, store=root))):
            with pytest.raises(ValueError, match="another grid") as refusal:
                read()
            message = str(refusal.value)
            assert address in message
            assert f"{stored}, not the {wanted}" in message
        stats = service.stats()
        assert stats["chunk_cache"]["entries"] == 0
        assert stats["synthesis"]["flights"] == 0

    def test_a_campaign_over_a_root_of_another_grid_raises_and_writes_nothing(
        self, fitted_emulator, pipeline, tmp_path
    ):
        """An L = 8 campaign over the root an L = 10 artifact wrote finds its
        addresses stored with another shape: it raises, naming the address
        and both shapes, before any shard or journal line is written.  A
        same-grid re-run still skips every address without a word."""
        other = pipeline[1]
        root = tmp_path / "store"
        written = repro.run_campaign(other, ["ssp-low"], n_times=SPY, store=root,
                                     collect="none")

        def contents():
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        before = contents()
        with pytest.raises(ValueError, match="another grid") as refusal:
            repro.run_campaign(fitted_emulator, ["ssp-low"], n_times=SPY, store=root,
                               collect="none")
        message = str(refusal.value)
        address = written.runs[0].chunk_addresses[0]
        stored = (SPY, *other.training_summary.grid.shape)
        wanted = (SPY, *fitted_emulator.training_summary.grid.shape)
        assert address in message
        assert f"{stored}, not the {wanted}" in message
        assert contents() == before

        rerun = repro.run_campaign(other, ["ssp-low"], n_times=SPY, store=root,
                                   collect="none")
        assert rerun.runs[0].chunk_addresses == written.runs[0].chunk_addresses
        assert contents() == before

    def test_a_corrupt_shard_fails_its_request_only(self, fitted_emulator, tmp_path):
        """A shard failing its CRC on read-through raises a ValueError
        naming the shard; nothing is cached, and other requests serve."""
        root = tmp_path / "store"
        bad = FieldRequest("ssp-low", realization=0)
        good = FieldRequest("ssp-low", realization=1)
        writer = repro.serve(fitted_emulator, seed=0, store=root)
        writer.get(bad)
        writer.get(good)
        store = ChunkStore(root)
        shard = store.entry(bad.chunk_addresses()[0])["file"]
        with open(root / shard, "r+b") as handle:
            handle.seek(8)
            byte = handle.read(1)
            handle.seek(8)
            handle.write(bytes([byte[0] ^ 0xFF]))

        service = repro.serve(fitted_emulator, seed=0, store=root)
        with pytest.raises(ValueError, match="fails its CRC-32") as refusal:
            service.get(bad)
        assert shard in str(refusal.value)
        assert service.stats()["chunk_cache"]["entries"] == 0
        assert np.array_equal(
            service.get(good), canonical_stream(fitted_emulator, "ssp-low", 1, 1)
        )
        stats = service.stats()
        assert stats["chunk_cache"]["entries"] == 1
        assert stats["store_chunk_hits"] == 1
        assert stats["synthesis"]["flights"] == 0


class TestFacade:
    def test_serve_builds_a_service(self, fitted_emulator):
        service = repro.serve(fitted_emulator, seed=7)
        assert isinstance(service, EmulationService)
        assert service.seed == 7

    def test_serve_accepts_artifact_path(self, fitted_emulator, tmp_path):
        path = repro.save(fitted_emulator, tmp_path / "emulator.npz")
        service = repro.serve(path, seed=0)
        request = FieldRequest("ssp-high", realization=0)
        reference = canonical_stream(fitted_emulator, "ssp-high", 0, 1)
        assert np.array_equal(service.get(request), reference)
        assert service.stats()["artifact_bytes"] > 0

    def test_serve_opens_store_paths_lossless(self, fitted_emulator, tmp_path):
        service = repro.serve(fitted_emulator, store=tmp_path / "store")
        service.get(FieldRequest("constant"))
        assert service.stats()["store"]["encoding"] == "float64"

    def test_exported_from_repro(self):
        assert repro.EmulationService is EmulationService
        assert repro.FieldRequest is FieldRequest
        assert repro.ChunkStore is ChunkStore
        assert callable(repro.serve)

    def test_cache_bytes_none_means_unlimited_at_both_layers(self, fitted_emulator):
        import inspect

        from repro.serving.service import DEFAULT_CACHE_BYTES

        # The facade default is a literal mirror of DEFAULT_CACHE_BYTES
        # (kept out of the signature to avoid importing the serving layer
        # eagerly); None means unlimited through both entry points.
        assert (
            inspect.signature(repro.serve).parameters["cache_bytes"].default
            == DEFAULT_CACHE_BYTES
        )
        service = repro.serve(fitted_emulator, cache_bytes=None)
        assert service.stats()["chunk_cache"]["max_bytes"] is None
        direct = EmulationService(fitted_emulator, cache_bytes=None)
        assert direct.stats()["chunk_cache"]["max_bytes"] is None


class TestConcurrency:
    def test_identical_inflight_requests_synthesize_once(self, fitted_emulator):
        service = repro.serve(fitted_emulator, seed=0)
        request = FieldRequest("ssp-high", realization=0, year_start=0, year_stop=3)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        outputs = [None] * n_threads

        def worker(i):
            barrier.wait()
            outputs[i] = service.get(request)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = service.stats()["synthesis"]
        assert stats["flights"] == 1
        assert stats["chunks"] == 3
        reference = canonical_stream(fitted_emulator, "ssp-high", 0, 3)
        for output in outputs:
            assert np.array_equal(output, reference)

    def test_warm_service_serves_concurrent_mixed_requests_from_cache(
        self, fitted_emulator
    ):
        service = repro.serve(fitted_emulator, seed=0)
        scenarios = ["ssp-low", "ssp-medium", "ssp-high"]
        requests = [
            FieldRequest(scenario, realization=r, year_start=year,
                         year_stop=year + 1)
            for scenario in scenarios
            for r in range(2)
            for year in range(3)
        ]
        for request in requests:  # warm every chunk once
            service.get(request)
        warm = service.stats()
        n_threads, per_thread = 8, 24
        barrier = threading.Barrier(n_threads)
        served = [[] for _ in range(n_threads)]

        def worker(i):
            order = np.random.default_rng(i).permutation(len(requests))
            barrier.wait()
            for k in range(per_thread):
                index = int(order[k % len(order)])
                served[i].append((index, service.get(requests[index])))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = service.stats()
        assert stats["synthesis"] == warm["synthesis"]  # nothing re-synthesized
        assert stats["request_hits"] == warm["request_hits"] + n_threads * per_thread
        references = {
            (scenario, r): canonical_stream(fitted_emulator, scenario, r, 3)
            for scenario in scenarios
            for r in range(2)
        }
        for outputs in served:
            assert len(outputs) == per_thread
            for index, output in outputs:
                request = requests[index]
                expected = references[(request.scenario, request.realization)]
                assert np.array_equal(
                    output,
                    expected[request.year_start * SPY:request.year_stop * SPY],
                )

    def test_a_failed_leader_fails_its_waiters_not_other_realizations(
        self, fitted_emulator
    ):
        """A held leader raises while identical waiters are parked: each
        waiter gets a RuntimeError chained to the cause.  A request for
        another realization of the same stream, started while the leader
        is held, runs its own flight and completes before the release with
        canonical bits.  No flight is left behind, and the next identical
        request leads a fresh flight."""

        class SynthesisFault(Exception):
            pass

        service = repro.serve(fitted_emulator, seed=0)
        failed = FieldRequest("ssp-low", realization=0, year_start=0, year_stop=2)
        other = FieldRequest("ssp-low", realization=1, year_start=0, year_stop=2)
        stream_addr = failed.stream_address()
        synthesize = service._synthesize
        release = threading.Event()
        calls = []

        def fail_first_flight(key, spec, include_nugget, first_missing, stop):
            calls.append((key, first_missing, stop))
            if len(calls) == 1:
                assert release.wait(30.0)
                raise SynthesisFault("synthesis fault")
            return synthesize(key, spec, include_nugget, first_missing, stop)

        service._synthesize = fail_first_flight
        outcomes = {}

        def worker(name, request):
            try:
                outcomes[name] = service.get(request)
            except BaseException as error:
                outcomes[name] = error

        threads = [threading.Thread(target=worker, args=("leader", failed))]
        threads[0].start()
        wait_until(lambda: (stream_addr, 0) in service._flights)
        for name in ("waiter-1", "waiter-2"):
            threads.append(threading.Thread(target=worker, args=(name, failed)))
            threads[-1].start()
        wait_until(lambda: service.stats()["synthesis"]["coalesced_waits"] == 2)
        threads.append(threading.Thread(target=worker, args=("other", other)))
        threads[-1].start()
        threads[-1].join(timeout=30.0)
        assert not threads[-1].is_alive(), "another realization queued behind the leader"
        assert np.array_equal(
            outcomes["other"], canonical_stream(fitted_emulator, "ssp-low", 1, 2)
        )
        release.set()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)

        assert isinstance(outcomes["leader"], SynthesisFault)
        for name in ("waiter-1", "waiter-2"):
            assert isinstance(outcomes[name], RuntimeError), outcomes[name]
            assert outcomes[name].__cause__ is outcomes["leader"]
        assert calls == [((stream_addr, 0), 0, 2), ((stream_addr, 1), 0, 2)]
        assert service._flights == {}

        flights = service.stats()["synthesis"]["flights"]
        assert np.array_equal(
            service.get(failed), canonical_stream(fitted_emulator, "ssp-low", 0, 2)
        )
        assert service.stats()["synthesis"]["flights"] == flights + 1
        assert calls[-1] == ((stream_addr, 0), 0, 2)
        assert service._flights == {}

    def test_a_waiter_past_the_flight_leads_the_next_one_and_resumes(
        self, fitted_emulator
    ):
        """While the flight for years [0, 2) of a realization runs, a
        request for year 2 waits on it, then leads the next flight from
        the first year it found missing: that flight resumes the stream
        the first one parked and serves canonical bits."""
        service = repro.serve(fitted_emulator, seed=0)
        first = FieldRequest("ssp-low", realization=0, year_start=0, year_stop=2)
        later = FieldRequest("ssp-low", realization=0, year_start=2, year_stop=3)
        key = (first.stream_address(), 0)
        synthesize = service._synthesize
        release = threading.Event()
        calls = []

        def hold_first_flight(key, spec, include_nugget, first_missing, stop):
            calls.append((key, first_missing, stop))
            if len(calls) == 1:
                assert release.wait(30.0)
            return synthesize(key, spec, include_nugget, first_missing, stop)

        service._synthesize = hold_first_flight
        outcomes = {}

        def worker(name, request):
            outcomes[name] = service.get(request)

        threads = [threading.Thread(target=worker, args=("first", first))]
        threads[0].start()
        wait_until(lambda: key in service._flights)
        threads.append(threading.Thread(target=worker, args=("later", later)))
        threads[-1].start()
        wait_until(lambda: service.stats()["synthesis"]["coalesced_waits"] == 1)
        release.set()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)

        reference = canonical_stream(fitted_emulator, "ssp-low", 0, 3)
        assert np.array_equal(outcomes["first"], reference[:2 * SPY])
        assert np.array_equal(outcomes["later"], reference[2 * SPY:])
        assert calls == [(key, 0, 2), (key, 2, 3)]
        synthesis = service.stats()["synthesis"]
        assert (synthesis["flights"], synthesis["stream_resumes"]) == (2, 1)
        assert synthesis["chunks"] == 3
        assert service._flights == {}

    def test_a_failed_write_through_fails_only_its_leader(
        self, fitted_emulator, tmp_path, monkeypatch
    ):
        """``put_many`` raises in the flight's write-through, after the
        waiters were released: they get their arrays, the leader raises the
        store error, no flight is left behind, and a retry is served from
        the cache bit-identically."""

        class StoreFault(Exception):
            pass

        service = repro.serve(fitted_emulator, seed=0, store=tmp_path / "store")
        request = FieldRequest("ssp-low", realization=0, year_start=0, year_stop=2)
        stream_addr = request.stream_address()
        synthesize = service._synthesize
        release = threading.Event()

        def held(*args):
            assert release.wait(30.0)
            return synthesize(*args)

        def fail(chunks):
            raise StoreFault("disk full")

        service._synthesize = held
        monkeypatch.setattr(service._store, "put_many", fail)
        outcomes = {}

        def worker(name):
            try:
                outcomes[name] = service.get(request)
            except BaseException as error:
                outcomes[name] = error

        def head():
            with service._lock:
                return service._flights.get((stream_addr, 0))

        threads = [threading.Thread(target=worker, args=("leader",))]
        threads[0].start()
        wait_until(lambda: head() is not None)
        for name in ("waiter-1", "waiter-2"):
            threads.append(threading.Thread(target=worker, args=(name,)))
            threads[-1].start()
        wait_until(lambda: service.stats()["synthesis"]["coalesced_waits"] == 2)
        release.set()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)

        assert isinstance(outcomes["leader"], StoreFault)
        reference = canonical_stream(fitted_emulator, "ssp-low", 0, 2)
        for name in ("waiter-1", "waiter-2"):
            assert np.array_equal(outcomes[name], reference), outcomes[name]
        assert service._flights == {}
        assert len(service._store) == 0
        flights = service.stats()["synthesis"]["flights"]
        assert np.array_equal(service.get(request), reference)
        assert service.stats()["synthesis"]["flights"] == flights == 1

    def test_counts_stay_exact_under_8_threads(self, fitted_emulator):
        service = repro.serve(fitted_emulator, seed=0)
        request = FieldRequest("ssp-low", realization=0, year_start=0, year_stop=2)
        nbytes = service.get(request).nbytes  # the one miss: now every get is hot
        warm = service.stats()
        n_threads, per_thread = 8, 200
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                service.get(request)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: lost updates show
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stats, total = service.stats(), n_threads * per_thread
        assert stats["requests"] == warm["requests"] + total
        assert stats["request_hits"] == warm["request_hits"] + total
        assert stats["chunk_cache"]["hits"] == warm["chunk_cache"]["hits"] + 2 * total
        assert stats["served_bytes"] == warm["served_bytes"] + total * nbytes

    def test_stress_mixed_hit_miss_inflight(self, fitted_emulator):
        """Many threads, mixed request shapes, pinned against serial emulate."""
        service = EmulationService(
            fitted_emulator, seed=0,
            # Small enough to force evictions mid-flight, large enough to
            # hold a couple of chunks.
            cache_bytes=3 * SPY * fitted_emulator.training_summary.grid.npoints * 8,
        )
        scenarios = ["ssp-high", "ssp-low"]
        shapes = [
            (0, 0, 2, None),
            (0, 0, 2, None),            # identical twin: in-flight dedup
            (1, 0, 3, None),
            (0, 1, 3, None),            # subrange
            (1, 0, 1, SpatialWindow(lat=(0, 4))),
            (2, 0, 2, SpatialWindow(lon=(2, 8))),
        ]
        jobs = [
            (scenario, realization, start, stop, window)
            for scenario in scenarios
            for realization, start, stop, window in shapes
        ] * 2
        barrier = threading.Barrier(len(jobs))
        outputs = [None] * len(jobs)
        errors = []

        def worker(i):
            scenario, realization, start, stop, window = jobs[i]
            request = FieldRequest(scenario, realization=realization,
                                   year_start=start, year_stop=stop,
                                   window=window)
            barrier.wait()
            try:
                outputs[i] = service.get(request)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        references = {
            (scenario, realization): canonical_stream(
                fitted_emulator, scenario, realization, 3
            )
            for scenario in scenarios
            for realization in (0, 1, 2)
        }
        for i, (scenario, realization, start, stop, window) in enumerate(jobs):
            expected = references[(scenario, realization)][start * SPY:stop * SPY]
            if window is not None:
                expected = window.extract(expected)
            assert np.array_equal(outputs[i], expected), jobs[i]
