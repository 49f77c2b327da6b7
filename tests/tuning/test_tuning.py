"""Tests of ``tune="auto"`` / ``cache_bytes="auto"``: the contract, not a model.

Tuning may move only bit-inert knobs, must never override the caller,
must leave nothing behind on disk, and its prediction must be an
extrapolation of the campaign it is running.
"""

import json
import os
import tempfile

import numpy as np
import pytest

import repro
from repro.data import Era5LikeConfig, Era5LikeGenerator
from repro.obs import get_registry
from repro.scenarios.campaign import run_campaign
from repro.tuning import (
    MachineProfile,
    _pilot_batch_size,
    calibrate_machine,
    plan_serving_cache_bytes,
)

SCENARIOS = ["ssp-low", "ssp-high"]


@pytest.fixture(scope="module")
def emulator():
    sims = Era5LikeGenerator(
        Era5LikeConfig(lmax=8, n_years=2, steps_per_year=4, n_ensemble=2),
        seed=3,
    ).generate()
    return repro.fit(sims, lmax=8, n_harmonics=1, var_order=1, tile_size=30)


def scripted(rates, available=None):
    """A fake ``time_block`` charging ``rates[n_runs]`` seconds per run.

    ``available`` caps the runs each successive call can return (a
    scenario's short tail); ``None`` entries mean "as many as asked".
    """
    calls = []

    def time_block(size):
        cap = None if available is None else available[len(calls)]
        if cap == 0:
            return None
        n_runs = size if cap is None else min(size, cap)
        calls.append(size)
        return n_runs, rates[n_runs] * n_runs

    return time_block, calls


def store_chunks(root):
    """``address -> array`` of everything in the chunk store at ``root``."""
    store = repro.ChunkStore(root)
    return {address: store.get(address) for address in store.addresses()}


def tree(root):
    """Every path under ``root``, relative, sorted."""
    return sorted(
        os.path.relpath(os.path.join(base, name), root)
        for base, dirs, files in os.walk(root)
        for name in dirs + files
    )


class TestPlanner:
    """The pilot's search (what plans the block size), on scripted timings."""

    def test_plan_is_deterministic(self):
        rates = {16: 1.0, 8: 0.7, 4: 0.69}
        first = _pilot_batch_size(16, scripted(rates)[0])
        second = _pilot_batch_size(16, scripted(rates)[0])
        assert first == second

    def test_largest_candidate_wins_when_halving_does_not_pay(self):
        time_block, calls = scripted({16: 1.0, 8: 1.0})
        winner, rate, samples = _pilot_batch_size(16, time_block)
        assert (winner, rate) == (16, 1.0)
        assert calls == [16, 16, 8]  # one block spent at the losing size
        assert samples == [
            {"batch_size": 16, "seconds_per_run": 1.0},
            {"batch_size": 16, "seconds_per_run": 1.0},
            {"batch_size": 8, "seconds_per_run": 1.0},
        ]

    def test_cold_first_block_is_sampled_but_not_compared(self):
        """The first block of a campaign pays one-off costs: at twice the
        warm rate it must not make half the size look faster."""
        calls = []

        def time_block(size):
            calls.append(size)
            cold = 2.0 if len(calls) == 1 else 1.0
            return size, cold * {16: 1.0, 8: 1.05}[size] * size

        winner, rate, samples = _pilot_batch_size(16, time_block)
        assert (winner, rate, calls) == (16, 1.0, [16, 16, 8])
        assert samples[0] == {"batch_size": 16, "seconds_per_run": 2.0}

    def test_halves_only_while_measurably_faster(self):
        # 8 beats 16 by 30 %; 4 beats 8 by 1 % — inside the noise margin.
        time_block, calls = scripted({16: 1.0, 8: 0.7, 4: 0.69})
        winner, rate, samples = _pilot_batch_size(16, time_block)
        assert (winner, rate) == (8, 0.7)
        assert calls == [16, 16, 8, 4]
        assert [s["batch_size"] for s in samples] == [16, 16, 8, 4]

    def test_search_ends_at_one_run(self):
        time_block, calls = scripted({4: 1.0, 2: 0.5, 1: 0.2})
        assert _pilot_batch_size(4, time_block)[0] == 1
        assert calls == [4, 4, 2, 1]

    def test_exhausted_plan_ends_the_search(self):
        # One block holds the whole campaign: its cold sample is all there is.
        time_block, calls = scripted({16: 1.0}, available=[None, 0])
        assert _pilot_batch_size(16, time_block) == (
            16, 1.0, [{"batch_size": 16, "seconds_per_run": 1.0}]
        )
        time_block, calls = scripted({16: 1.0}, available=[None, None, 0])
        winner, rate, samples = _pilot_batch_size(16, time_block)
        assert (winner, rate, len(samples)) == (16, 1.0, 2)

    def test_short_scenario_tail_is_sampled_at_its_real_size(self):
        time_block, _ = scripted({32: 1.0, 1: 3.0}, available=[None, None, 1])
        winner, _, samples = _pilot_batch_size(32, time_block)
        assert winner == 32
        assert samples[2] == {"batch_size": 1, "seconds_per_run": 3.0}

    def test_pinned_size_times_one_block(self):
        time_block, calls = scripted({4: 1.0, 2: 0.1})
        assert _pilot_batch_size(16, time_block, 4)[:2] == (4, 1.0) and calls == [4]
        # A pinned size larger than the scenario still comes back as pinned.
        time_block, calls = scripted({4: 1.0}, available=[4])
        assert _pilot_batch_size(4, time_block, 8)[:2] == (8, 1.0) and calls == [8]

    def test_largest_candidate_is_capped_at_32(self):
        time_block, calls = scripted({32: 1.0, 16: 1.0})
        assert _pilot_batch_size(100, time_block)[0] == 32 and calls == [32, 32, 16]

    def test_explicit_knobs_are_pinned(self, emulator):
        manifest = run_campaign(
            emulator, SCENARIOS, 4, tune="auto", executor="thread", max_workers=3
        )
        assert manifest.executor == "thread" and manifest.max_workers == 3
        assert manifest.tuning["chosen"] == {
            "executor": "caller",
            "max_workers": "caller",
            "batch_size": "pilot",
        }

    def test_plan_respects_host_limits(self, emulator):
        """An unset max_workers is one worker whatever the host's core count,
        tuned and untuned; the batch stays within the candidates."""
        plain = run_campaign(emulator, SCENARIOS, 4)
        assert plain.executor == "thread" and plain.max_workers == 1
        for _ in range(3):
            manifest = run_campaign(emulator, SCENARIOS, 4, tune="auto")
            assert manifest.executor == "thread" and manifest.max_workers == 1
            assert manifest.tuning["max_workers"] == 1
            assert 1 <= manifest.batch_size <= 4
            assert manifest.tuning["chosen"]["executor"] == "default"
            assert manifest.tuning["chosen"]["max_workers"] == "default"

    def test_serving_cache_clamps(self):
        profile = MachineProfile("host", 2, 8 * 2**30)
        assert plan_serving_cache_bytes(profile, 1) == 64 * 2**20
        assert plan_serving_cache_bytes(profile, 2**40) == 2 * 2**30
        assert plan_serving_cache_bytes(profile, 4 * 2**20) == 256 * 2**20
        # Unknown memory still clamps; tiny hosts never go below the floor.
        assert plan_serving_cache_bytes(MachineProfile("h", 1, 0), 2**40) == 2**30
        assert plan_serving_cache_bytes(MachineProfile("h", 1, 2**20), 2**40) == 64 * 2**20

    def test_calibrate_machine_reads_the_host(self):
        profile = calibrate_machine()
        assert profile == calibrate_machine()  # nothing timed, nothing random
        assert profile.cpu_count == (os.cpu_count() or 1)
        assert profile.memory_bytes >= 0 and profile.hostname


class TestTunedEqualsUntuned:
    """Run records, ``collected`` and every stored chunk, across the grid."""

    @pytest.mark.parametrize("max_workers", [1, 2])
    @pytest.mark.parametrize("with_store", [False, True])
    @pytest.mark.parametrize("n_realizations", [1, 3, 4, 16])
    def test_same_bits(self, emulator, tmp_path, n_realizations, with_store, max_workers):
        def campaign(label, **knobs):
            store = os.fspath(tmp_path / label) if with_store else None
            return run_campaign(
                emulator, SCENARIOS, n_realizations, seed=7, store=store, **knobs
            )

        tuned = campaign("tuned", tune="auto", max_workers=max_workers)
        plain = campaign("plain", max_workers=1, batch_size=2)
        assert [r.to_dict() for r in tuned.runs] == [r.to_dict() for r in plain.runs]
        tc, pc = tuned.collected(), plain.collected()
        assert set(tc) == set(pc) and len(tc) == 2 * n_realizations
        for key in tc:
            np.testing.assert_array_equal(tc[key], pc[key])
        if with_store:
            tuned_chunks = store_chunks(tmp_path / "tuned")
            plain_chunks = store_chunks(tmp_path / "plain")
            assert set(tuned_chunks) == set(plain_chunks) and tuned_chunks
            for address, array in tuned_chunks.items():
                np.testing.assert_array_equal(array, plain_chunks[address])
        assert tuned.tuning["predicted_seconds"] > 0

    def test_all_knobs_pinned_still_times_the_first_block(self, emulator):
        manifest = run_campaign(
            emulator, SCENARIOS, 3, tune="auto",
            executor="thread", max_workers=2, batch_size=2,
        )
        plain = run_campaign(emulator, SCENARIOS, 3)
        assert [r.to_dict() for r in manifest.runs] == [r.to_dict() for r in plain.runs]
        header = manifest.tuning
        assert header["predicted_seconds"] > 0
        assert header["samples"] == [
            {"batch_size": 2, "seconds_per_run": header["samples"][0]["seconds_per_run"]}
        ]
        assert [b["n_runs"] for b in manifest.batch_timings] == [2, 1, 2, 1]


class TestCampaignIntegration:
    def test_tuned_campaign_bit_identical_to_untuned(self, emulator):
        tuned = run_campaign(emulator, SCENARIOS, 3, tune="auto")
        plain = run_campaign(emulator, SCENARIOS, 3)
        assert [r.to_dict() for r in tuned.runs] == [
            r.to_dict() for r in plain.runs
        ]
        tc, pc = tuned.collected(), plain.collected()
        assert set(tc) == set(pc)
        for key in tc:
            np.testing.assert_array_equal(tc[key], pc[key])

    def test_explicit_kwargs_override_tune_auto(self, emulator):
        manifest = run_campaign(
            emulator, ["ssp-low"], 2, tune="auto",
            executor="thread", max_workers=3, batch_size=2,
        )
        assert manifest.executor == "thread"
        assert manifest.max_workers == 3
        assert manifest.batch_size == 2
        assert manifest.tuning["chosen"] == {
            "executor": "caller",
            "max_workers": "caller",
            "batch_size": "caller",
        }

    def test_tuning_header_records_prediction_and_actual(self, emulator):
        manifest = run_campaign(emulator, ["ssp-low"], 2, tune="auto")
        header = json.loads(manifest.to_json())["tuning"]
        assert set(header) == {
            "executor", "max_workers", "batch_size", "chosen",
            "predicted_seconds", "actual_seconds", "samples",
        }
        assert header["predicted_seconds"] > 0
        assert header["actual_seconds"] > 0
        assert header["executor"] == "thread"
        assert isinstance(header["max_workers"], int)
        assert header["batch_size"] == manifest.batch_size
        gauges = get_registry().snapshot()["gauges"]
        assert gauges["tuning.campaign.predicted_seconds"] == header["predicted_seconds"]
        assert gauges["tuning.campaign.actual_seconds"] == header["actual_seconds"]

    def test_pilot_blocks_never_straddle_a_scenario(self, emulator):
        manifest = run_campaign(
            emulator, ["ssp-low", "ssp-medium", "ssp-high"], 5, tune="auto"
        )
        assert sum(b["n_runs"] for b in manifest.batch_timings) == manifest.n_runs
        offset = 0
        for block in manifest.batch_timings:
            runs = manifest.runs[offset:offset + block["n_runs"]]
            offset += block["n_runs"]
            assert {run.scenario for run in runs} == {block["scenario"]}
        # The pilot's samples are the campaign's first blocks, in order.
        samples = manifest.tuning["samples"]
        assert [s["batch_size"] for s in samples] == [
            b["n_runs"] for b in manifest.batch_timings[:len(samples)]
        ]
        assert samples[0]["batch_size"] == 5

    def test_pilot_span_sits_inside_campaign_total(self, emulator):
        with repro.obs.tracing():
            run_campaign(emulator, SCENARIOS, 4, tune="auto", max_workers=1)
            records = repro.obs.trace_records()
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        (pilot,), (total,) = by_name["tuning.pilot"], by_name["campaign.total"]
        assert pilot["parent_id"] == total["span_id"]
        assert pilot["attrs"]["winner"] in pilot["attrs"]["candidates"]
        assert len(pilot["attrs"]["seconds_per_run"]) == len(pilot["attrs"]["candidates"])
        piloted = [
            r for r in by_name["campaign.batch"] if r["parent_id"] == pilot["span_id"]
        ]
        assert len(piloted) == len(pilot["attrs"]["candidates"])
        assert not any(name.startswith("tuning.calibrate") for name in by_name)
        assert "tuning.plan" not in by_name

    def test_prediction_extrapolates_this_campaign(self, emulator):
        """Warmed 24-run campaign, one worker: predicted within 4x of actual
        (the cost model this replaced read 0.2-0.6 here, 0.02-0.07 at L=64)."""
        kwargs = dict(n_realizations=12, max_workers=1, tune="auto")
        run_campaign(emulator, SCENARIOS, **kwargs)
        header = run_campaign(emulator, SCENARIOS, **kwargs).tuning
        assert 0.25 <= header["predicted_seconds"] / header["actual_seconds"] <= 4

    def test_untuned_manifest_has_no_tuning_header(self, emulator):
        manifest = run_campaign(emulator, ["ssp-low"], 1)
        assert manifest.tuning is None
        assert manifest.to_dict()["tuning"] is None

    def test_max_workers_none_resolves_to_explicit_int(self, emulator):
        """Regression: the header never records null workers."""
        for kwargs in ({}, {"tune": "auto"}):
            manifest = run_campaign(emulator, ["ssp-low"], 2, **kwargs)
            header = manifest.to_dict()
            assert isinstance(header["max_workers"], int)
            assert header["max_workers"] >= 1
            payload = json.loads(manifest.to_json())
            assert payload["max_workers"] is not None

    def test_invalid_tune_rejected(self, emulator):
        with pytest.raises(ValueError, match="tune"):
            run_campaign(emulator, ["ssp-low"], 1, tune="always")

    def test_serve_cache_bytes_auto(self, emulator):
        service = repro.serve(emulator, cache_bytes="auto")
        reference = repro.serve(emulator)
        request = repro.FieldRequest("ssp-low", realization=0, year_start=0)
        np.testing.assert_array_equal(
            service.get(request), reference.get(request)
        )
        budget = get_registry().snapshot()["gauges"]["tuning.serve.cache_bytes"]
        memory = calibrate_machine().memory_bytes
        assert 64 * 2**20 <= budget <= max(memory // 4, 64 * 2**20)


class TestTuningLeavesNothingBehind:
    """Edge defects of the profile cache this replaced; each failed before."""

    @pytest.fixture(autouse=True)
    def private_tempdir(self, tmp_path, monkeypatch):
        self.tempdir = tmp_path / "tmp"
        self.tempdir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", os.fspath(self.tempdir))

    def test_bare_relative_artifact_name(self, emulator, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        repro.save(emulator, "em.npz")
        manifest = run_campaign("em.npz", ["ssp-low"], 2, tune="auto")
        assert manifest.tuning["actual_seconds"] > 0
        assert tree(cwd) == ["em.npz"]
        assert tree(self.tempdir) == []

    def test_store_root_holds_only_the_store(self, emulator, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        run_campaign(emulator, SCENARIOS, 3, store=tmp_path / "tuned", tune="auto")
        run_campaign(emulator, SCENARIOS, 3, store=tmp_path / "plain")
        assert tree(tmp_path / "tuned") == tree(tmp_path / "plain")
        request = repro.FieldRequest("ssp-low", realization=0, year_start=0)
        repro.serve(emulator, store=tmp_path / "tuned", cache_bytes="auto").get(request)
        repro.serve(emulator, store=tmp_path / "plain").get(request)
        assert tree(tmp_path / "tuned") == tree(tmp_path / "plain")
        assert tree(cwd) == [] and tree(self.tempdir) == []

    def test_storeless_callers_share_no_temp_cache(self, emulator):
        run_campaign(emulator, ["ssp-low"], 2, tune="auto")
        repro.serve(emulator, cache_bytes="auto")
        assert tree(self.tempdir) == []
