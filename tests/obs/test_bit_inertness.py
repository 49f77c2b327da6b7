"""Telemetry is bit-inert, and the legacy stat surfaces are pinned.

Two contracts from the observability layer's charter:

* **bit-inert** — every emitted array (fit state, transformed fields and
  coefficients, emulated fields, served fields, campaign outputs) is
  bit-identical with tracing off, on, or toggled mid-run;
* **back-compat** — ``EmulationService.stats()`` and
  ``plan_cache_stats()`` keep their exact pre-telemetry keys and values
  (bar the plan cache's ``evictions`` / ``limit_bytes``, which went with
  its byte cap, and the service's ``term_memo`` / ``state_memo`` reports
  and ``synthesis["restored"]``, which came with its memos).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from factor_state import assert_states_bit_identical  # tests/ is on sys.path (rootdir layout)
from repro.obs import clear_trace, disable, trace_records, tracing
from repro.obs.tracing import _enable as enable
from repro.scenarios.campaign import run_campaign
from repro.serving.request import FieldRequest
from repro.serving.service import EmulationService
from repro.sht.grid import Grid
from repro.sht.plancache import clear_plan_cache, get_plan, plan_cache_stats


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

    # A model year is 24 steps: 2 x 24 = 48 slices take the inverse SHT's
    # blocked path (more than one synthesis block of 32); 1 x 24 the
    # single-block path.
    @pytest.mark.parametrize("n_realizations", [1, 2])
    def test_emulate_is_bit_inert(self, fitted_emulator, n_realizations):
        def emulate():
            return repro.emulate(fitted_emulator, n_realizations=n_realizations,
                                 n_times=24, rng=11)

        baseline = emulate()
        with tracing():
            traced = emulate()
        toggled = emulate()
        assert np.array_equal(baseline.data, traced.data)
        assert np.array_equal(baseline.data, toggled.data)

    def test_emulate_stream_survives_mid_run_toggles(self, fitted_emulator):
        def chunks():
            return repro.emulate_stream(fitted_emulator, n_times=72,
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
        assert len(baseline) == len(toggled) == 3
        for expected, got in zip(baseline, toggled):
            assert np.array_equal(expected, got)

    # Leading batch shapes around the 32-slice FFT block of both
    # directions: one slice, exactly one block, one slice past it, and a
    # stacked runs x times batch of many blocks.
    @pytest.mark.parametrize("batch", [(), (32,), (33,), (16, 24)],
                             ids=["single", "one-block", "past-block", "stacked"])
    @pytest.mark.parametrize("direction",
                             ["forward", "forward_realform", "inverse", "inverse_realform"])
    def test_sht_transform_is_bit_inert(self, direction, batch):
        plan = get_plan("fast", 16, Grid.for_bandlimit(16))
        rng = np.random.default_rng(2024)
        if direction.startswith("forward"):
            operand = rng.standard_normal(batch + plan.grid.shape)
        elif direction == "inverse":
            operand = plan.random_coefficients(rng, shape=batch)
        else:
            operand = rng.standard_normal(batch + (plan.n_coeffs,))
        transform = getattr(plan, direction)

        baseline = transform(operand)
        with tracing():
            traced = transform(operand)
        toggled = transform(operand)
        assert np.array_equal(baseline, traced)
        assert np.array_equal(baseline, toggled)
        span_name = "sht.forward" if direction.startswith("forward") else "sht.inverse"
        assert span_name in {rec["name"] for rec in trace_records()}

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
        assert list(stats) == ["size", "bytes", "hits", "misses", "pid", "keys"]
        assert stats["size"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
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
            "store_chunk_hits", "chunk_cache", "term_memo", "state_memo",
            "synthesis", "store",
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
            "flights", "coalesced_waits", "chunks", "seconds",
            "stream_resumes", "restored",
        ]
        for memo in ("term_memo", "state_memo"):
            assert list(stats[memo]) == list(stats["chunk_cache"])
        assert stats["store"] is None
        assert stats["synthesis"]["flights"] == 1
        assert isinstance(stats["synthesis"]["seconds"], float)

    def test_service_metrics_registry_is_per_instance(self, fitted_emulator):
        a = EmulationService(fitted_emulator, seed=1)
        b = EmulationService(fitted_emulator, seed=2)
        a.get(FieldRequest("ssp-low", realization=0, year_start=0, year_stop=1))
        assert a.stats()["requests"] == 1
        assert b.stats()["requests"] == 0
