"""Tests of the on-demand emulation service.

The bit-exactness contract (see :mod:`repro.serving.service`): served
fields equal the canonical year-chunked stream
(``emulate_stream(chunk_size=steps_per_year)``) bit for bit on every
path — and therefore equal direct ``emulate`` for single-year requests
and for any nugget-free request.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.core.window import SpatialWindow
from repro.serving.request import FieldRequest
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
        rng=rng, chunk_size=SPY, include_nugget=include_nugget,
    )
    return np.concatenate([c.data for c in chunks], axis=1)[0]


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

    def test_cached_path_is_bit_identical_to_cold(self, service):
        request = FieldRequest("ssp-low", realization=1, year_start=0, year_stop=2)
        cold = service.get(request)
        hot = service.get(request)
        assert np.array_equal(cold, hot)
        stats = service.stats()
        assert stats["request_hits"] == 1 and stats["request_misses"] == 1

    def test_single_year_request_equals_direct_emulate(self, fitted_emulator, service):
        request = FieldRequest("ssp-high", realization=5)
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(5,)))
        direct = fitted_emulator.emulate(
            1, n_times=SPY, annual_forcing="ssp-high", rng=rng
        )
        assert np.array_equal(service.get(request), direct.data[0])

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
            FieldRequest(repro.SCENARIOS.create("ssp-high"), realization=0)
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
    def test_every_get_feeds_the_latency_histogram(self, service):
        def summary():
            return repro.obs.metrics_snapshot()["histograms"].get(
                "serve.get.seconds", {"count": 0})

        before = summary()["count"]
        request = FieldRequest("ssp-low", realization=0)
        service.get(request)
        service.get(request)
        service.get(FieldRequest("ssp-high", realization=1))
        after = summary()
        assert after["count"] == before + 3
        assert 0.0 < after["p50"] <= after["p99"] <= after["max"]

    def test_services_count_in_their_own_registries(self, fitted_emulator):
        first = repro.serve(fitted_emulator, seed=0)
        second = repro.serve(fitted_emulator, seed=0)
        first.get(FieldRequest("ssp-low"))
        first.get(FieldRequest("ssp-low"))
        second.get(FieldRequest("ssp-low"))
        assert first.stats()["requests"] == 2
        assert second.stats()["requests"] == 1
        assert first.metrics is not second.metrics
        assert "serving.requests" not in repro.obs.metrics_snapshot()["counters"]


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

    def test_quantized_store_reports_its_error(self, fitted_emulator, tmp_path):
        store = ChunkStore(tmp_path / "qstore", encoding="int16")
        service = repro.serve(fitted_emulator, seed=0, store=store)
        request = FieldRequest("ssp-high", realization=0, year_start=0, year_stop=2)
        service.get(request)  # synthesizes, write-through quantizes
        fresh = repro.serve(fitted_emulator, seed=0, store=store)
        served = fresh.get(request)
        reference = canonical_stream(fitted_emulator, "ssp-high", 0, 2)
        error = float(np.max(np.abs(served - reference)))
        assert 0.0 < error <= store.max_abs_error() + 1e-15
        # Temperature fields span O(100 K); int16 quantization of a
        # chunk-wide range keeps the error well below 0.01 K here.
        assert error < 1e-2

    def test_serving_storage_report(self, fitted_emulator, tmp_path):
        from repro.storage.accounting import serving_storage_report

        store = ChunkStore(tmp_path / "store", encoding="int16")
        service = repro.serve(fitted_emulator, seed=0, store=store)
        service.get(FieldRequest("ssp-high", realization=0, year_start=0,
                                 year_stop=3))
        report = serving_storage_report(service)
        assert report["requests"] == 1
        assert report["served_bytes"] == 3 * SPY * service.grid.npoints * 8
        assert report["boost_factor"] == pytest.approx(
            report["served_bytes"] / report["artifact_bytes"]
        )
        assert report["store_lossless"] is False
        assert report["store_max_abs_error"] > 0.0
        # Accepts the stats dict too.
        assert serving_storage_report(service.stats()) == report


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

    def test_same_scenario_requests_coalesce_into_batches(self, fitted_emulator):
        service = repro.serve(fitted_emulator, seed=0)
        n_threads = 6
        requests = [
            FieldRequest("ssp-low", realization=r, year_start=0, year_stop=2)
            for r in range(n_threads)
        ]
        barrier = threading.Barrier(n_threads)
        outputs = [None] * n_threads
        synthesize = service._synthesize
        held = []

        def hold_first_flight(stream_addr, spec, include_nugget, needs):
            # Synthesis at this size can finish before the next thread
            # arrives; keep the first flight "running" until every other
            # request has joined it or pooled into its successor.
            if not held:
                held.append(True)
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    with service._lock:
                        successor = service._flights[stream_addr].next
                    pooled = len(successor.needs) if successor is not None else 0
                    if len(needs) + pooled == n_threads:
                        break
                    time.sleep(0.001)
            return synthesize(stream_addr, spec, include_nugget, needs)

        service._synthesize = hold_first_flight

        def worker(i):
            barrier.wait()
            outputs[i] = service.get(requests[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        stats = service.stats()["synthesis"]
        # Whoever joined before the leader's snapshot rides the first
        # flight; everything arriving while it runs pools into one
        # successor batch — never one flight per request.
        assert stats["flights"] <= 2
        assert stats["chunks"] == 2 * n_threads
        for realization, output in enumerate(outputs):
            reference = canonical_stream(fitted_emulator, "ssp-low", realization, 2)
            assert np.array_equal(output, reference)

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
