"""Telemetry is bit-inert, and the legacy stat surfaces are pinned.

Two contracts from the observability layer's charter:

* **bit-inert** — every emitted array (fit state, emulated fields,
  served fields, campaign outputs) is bit-identical with tracing off,
  on, or toggled mid-run;
* **back-compat** — ``EmulationService.stats()`` and
  ``plan_cache_stats()`` keep their exact pre-telemetry keys and values
  now that the numbers come from metrics registries.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from repro.obs import clear_trace, disable, enable, trace_records, tracing
from repro.scenarios.campaign import run_campaign
from repro.serving.request import FieldRequest
from repro.serving.service import EmulationService
from repro.sht.plancache import clear_plan_cache, get_plan, plan_cache_stats
from repro.util.compare import assert_states_bit_identical


@pytest.fixture(autouse=True)
def clean_tracing():
    disable()
    clear_trace()
    yield
    disable()
    clear_trace()


def _fit(small_ensemble):
    return repro.fit(small_ensemble, lmax=8, n_harmonics=2, var_order=1,
                     tile_size=16, rho_grid=(0.3, 0.7))


class TestBitInertness:
    def test_fit_is_bit_inert(self, small_ensemble):
        baseline = _fit(small_ensemble)
        with tracing():
            traced = _fit(small_ensemble)
        assert trace_records(), "tracing produced no spans for fit"
        assert_states_bit_identical(baseline.state_dict(), traced.state_dict())

    def test_emulate_is_bit_inert(self, fitted_emulator):
        baseline = repro.emulate(fitted_emulator, n_realizations=2, n_times=8,
                                 rng=np.random.default_rng(11))
        with tracing():
            traced = repro.emulate(fitted_emulator, n_realizations=2, n_times=8,
                                   rng=np.random.default_rng(11))
        assert np.array_equal(baseline.data, traced.data)

    def test_emulate_stream_survives_mid_run_toggles(self, fitted_emulator):
        def chunks():
            return repro.emulate_stream(fitted_emulator, n_times=24,
                                        chunk_size=6,
                                        rng=np.random.default_rng(5))

        baseline = [chunk.data for chunk in chunks()]
        toggled = []
        # enable -> disable -> enable while the stream is mid-flight.
        for index, chunk in enumerate(chunks()):
            toggled.append(chunk.data)
            if index % 2 == 0:
                enable()
            else:
                disable()
        assert len(baseline) == len(toggled) == 4
        for expected, got in zip(baseline, toggled):
            assert np.array_equal(expected, got)

    def test_serving_is_bit_inert(self, fitted_emulator):
        request = FieldRequest("ssp-high", realization=1, year_start=0,
                               year_stop=2)
        baseline = EmulationService(fitted_emulator, seed=99).get(request)
        with tracing():
            traced = EmulationService(fitted_emulator, seed=99).get(request)
        assert np.array_equal(baseline, traced)

    def test_campaign_is_bit_inert_across_a_mid_campaign_toggle(
        self, fitted_emulator, tmp_path
    ):
        def campaign():
            return run_campaign(fitted_emulator, ["ssp-low", "ssp-high"], 2,
                                n_times=8, seed=7, collect="global-mean")

        baseline = campaign()
        enable(tmp_path / "campaign.jsonl")
        first_traced = campaign()
        disable()
        untraced = campaign()
        enable()
        second_traced = campaign()
        disable()

        for manifest in (first_traced, untraced, second_traced):
            assert manifest.n_runs == baseline.n_runs
            assert manifest.total_output_bytes == baseline.total_output_bytes
            for expected, got in zip(baseline.runs, manifest.runs):
                # Run records are timing-free by design: wall_seconds is
                # a separate field, never part of to_dict().
                assert expected.to_dict() == got.to_dict()
                assert np.array_equal(expected.collected, got.collected)
        trace_names = {rec["name"] for rec in trace_records()}
        assert "campaign.batch" in trace_names
        assert "campaign.total" in trace_names


class TestBackCompatPinning:
    def test_plan_cache_stats_keys_and_values(self, small_grid):
        clear_plan_cache()
        plan = get_plan("fast", 8, small_grid)
        again = get_plan("fast", 8, small_grid)
        assert again is plan
        stats = plan_cache_stats()
        assert list(stats) == [
            "size", "bytes", "hits", "misses", "evictions", "limit_bytes",
            "pid", "keys",
        ]
        assert stats["size"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["pid"] == os.getpid()
        assert stats["bytes"] > 0
        assert len(stats["keys"]) == 1
        clear_plan_cache()

    def test_service_stats_shape_and_values_pinned(self, fitted_emulator):
        service = EmulationService(fitted_emulator, seed=3)
        request = FieldRequest("ssp-low", realization=0, year_start=0,
                               year_stop=1)
        first = service.get(request)
        service.get(request)
        stats = service.stats()
        assert list(stats) == [
            "seed", "steps_per_year", "artifact_bytes", "requests",
            "request_hits", "request_misses", "served_bytes",
            "store_chunk_hits", "chunk_cache", "synthesis", "store",
        ]
        assert stats["seed"] == 3
        assert stats["requests"] == 2
        assert stats["request_misses"] == 1
        assert stats["request_hits"] == 1
        assert stats["served_bytes"] == 2 * first.nbytes
        assert list(stats["chunk_cache"]) == [
            "entries", "bytes", "max_bytes", "hits", "misses", "evictions",
        ]
        assert list(stats["synthesis"]) == [
            "flights", "batched_flights", "coalesced_realizations",
            "coalesced_waits", "chunks", "seconds", "stream_resumes",
            "live_streams",
        ]
        assert stats["store"] is None
        assert stats["synthesis"]["flights"] == 1
        assert isinstance(stats["synthesis"]["seconds"], float)

    def test_service_metrics_registry_is_per_instance(self, fitted_emulator):
        a = EmulationService(fitted_emulator, seed=1)
        b = EmulationService(fitted_emulator, seed=2)
        a.get(FieldRequest("ssp-low", realization=0, year_start=0, year_stop=1))
        assert a.stats()["requests"] == 1
        assert b.stats()["requests"] == 0
        assert a.metrics is not b.metrics
