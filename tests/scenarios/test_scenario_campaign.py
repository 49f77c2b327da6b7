"""Tests of the sharded ensemble-campaign runner and its manifest."""

import json
import os

import numpy as np
import pytest

import repro
from repro.scenarios.campaign import iter_chunk_arrays, plan_campaign, run_campaign
from repro.storage.accounting import campaign_storage_report

SCENARIO_NAMES = ["ssp-low", "ssp-medium", "ssp-high"]


@pytest.fixture(scope="module")
def serial_manifest(fitted_emulator):
    """A 3-scenario x 2-realization campaign executed serially."""
    return run_campaign(
        fitted_emulator, SCENARIO_NAMES, 2, n_times=48, chunk_size=24,
        seed=2024, collect="fields",
    )


class TestPlanning:
    def test_runs_are_scenario_major_with_spawned_seeds(self, serial_manifest):
        runs = serial_manifest.runs
        assert [r.scenario for r in runs] == [
            "ssp-low", "ssp-low", "ssp-medium", "ssp-medium", "ssp-high", "ssp-high",
        ]
        assert [r.realization for r in runs] == [0, 1, 0, 1, 0, 1]
        # Realization r of every scenario is pinned to the SeedSequence
        # child with spawn_key (r,) -- the serving tier's stream.
        assert [r.spawn_key for r in runs] == [(r.realization,) for r in runs]

    def test_plan_campaign_validation(self):
        with pytest.raises(ValueError, match="at least one scenario"):
            plan_campaign([], 1, n_times=10, steps_per_year=5, chunk_size=5)
        with pytest.raises(ValueError, match="n_realizations"):
            plan_campaign(["constant"], 0, n_times=10, steps_per_year=5, chunk_size=5)
        with pytest.raises(ValueError, match="collect"):
            plan_campaign(["constant"], 1, n_times=10, steps_per_year=5, chunk_size=5,
                          collect="everything")
        with pytest.raises(ValueError, match="duplicate"):
            plan_campaign(["constant", "ssp-low", "constant"], 1, n_times=10,
                          steps_per_year=5, chunk_size=5)

    def test_run_campaign_validation(self, fitted_emulator):
        for executor in ("carrier-pigeon", "process"):
            with pytest.raises(
                ValueError, match=r"process executor was removed.*max_workers=N"
            ):
                run_campaign(fitted_emulator, ["constant"], executor=executor)
        with pytest.raises(ValueError, match="n_times"):
            run_campaign(fitted_emulator, ["constant"], n_times=0)
        with pytest.raises(ValueError, match="max_workers"):
            run_campaign(fitted_emulator, ["constant"], max_workers=0)
        with pytest.raises(RuntimeError, match="fitted"):
            run_campaign(repro.ClimateEmulator(), ["constant"])


class TestDeterminism:
    def test_sharded_threads_bit_identical_to_serial(self, fitted_emulator,
                                                     serial_manifest):
        sharded = run_campaign(
            fitted_emulator, SCENARIO_NAMES, 2, n_times=48, chunk_size=24,
            seed=2024, collect="fields", max_workers=4,
        )
        assert sharded.n_runs == serial_manifest.n_runs == 6
        for serial_run, sharded_run in zip(serial_manifest.runs, sharded.runs):
            assert serial_run.to_dict() == sharded_run.to_dict()
            assert np.array_equal(serial_run.collected, sharded_run.collected)

    def test_runs_reproducible_and_seed_sensitive(self, fitted_emulator,
                                                  serial_manifest):
        again = run_campaign(fitted_emulator, SCENARIO_NAMES, 2, n_times=48,
                             chunk_size=24, seed=2024, collect="fields")
        other = run_campaign(fitted_emulator, SCENARIO_NAMES, 2, n_times=48,
                             chunk_size=24, seed=99, collect="fields")
        for a, b, c in zip(serial_manifest.runs, again.runs, other.runs):
            assert np.array_equal(a.collected, b.collected)
            assert not np.array_equal(a.collected, c.collected)

    def test_realizations_are_independent_streams(self, serial_manifest):
        r0 = serial_manifest.run("ssp-low", 0).collected
        r1 = serial_manifest.run("ssp-low", 1).collected
        assert not np.array_equal(r0, r1)

    def test_run_matches_direct_emulate_stream(self, fitted_emulator,
                                               serial_manifest):
        """A campaign run is exactly emulate_stream under the spawned seed."""
        from repro.data.forcing import scenario_forcing

        record = serial_manifest.run("ssp-medium", 1)
        forcing = scenario_forcing("ssp-medium", 2)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=2024, spawn_key=record.spawn_key)
        )
        chunks = fitted_emulator.emulate_stream(
            1, n_times=48, annual_forcing=forcing, rng=rng, chunk_size=24,
        )
        direct = np.concatenate([chunk.data[0] for chunk in chunks], axis=0)
        assert np.array_equal(record.collected, direct)

    def test_artifact_path_source_matches_in_memory(self, fitted_emulator,
                                                    serial_manifest, tmp_path):
        path = repro.save(fitted_emulator, tmp_path / "emulator.npz")
        from_disk = run_campaign(path, SCENARIO_NAMES, 2, n_times=48,
                                 chunk_size=24, seed=2024, collect="fields")
        for a, b in zip(serial_manifest.runs, from_disk.runs):
            assert np.array_equal(a.collected, b.collected)


class TestBatchedSynthesis:
    """``batch_size > 1`` vectorises same-scenario runs, bit-identically."""

    def test_batched_bit_identical_to_serial(self, fitted_emulator,
                                             serial_manifest):
        for batch_size in (2, 3):
            batched = run_campaign(
                fitted_emulator, SCENARIO_NAMES, 2, n_times=48, chunk_size=24,
                seed=2024, collect="fields", batch_size=batch_size,
            )
            assert batched.batch_size == batch_size
            for serial_run, batched_run in zip(serial_manifest.runs, batched.runs):
                assert serial_run.to_dict() == batched_run.to_dict()
                assert np.array_equal(serial_run.collected, batched_run.collected)

    def test_batched_and_sharded_combined(self, fitted_emulator, serial_manifest):
        batched = run_campaign(
            fitted_emulator, SCENARIO_NAMES, 2, n_times=48, chunk_size=24,
            seed=2024, collect="fields", batch_size=2, max_workers=3,
        )
        for serial_run, batched_run in zip(serial_manifest.runs, batched.runs):
            assert serial_run.to_dict() == batched_run.to_dict()
            assert np.array_equal(serial_run.collected, batched_run.collected)

    def test_batched_output_files_bit_identical(self, fitted_emulator, tmp_path):
        """Run records, collected series and the chunks a campaign lands in
        its store never depend on worker count, batching or tuning."""
        def outputs(sub_dir, **knobs):
            manifest = run_campaign(
                fitted_emulator, ["ssp-low", "ssp-high"], 3, n_times=48, seed=7,
                store=tmp_path / sub_dir, **knobs,
            )
            store = repro.ChunkStore(tmp_path / sub_dir)
            # The chunk addresses are part of each run's to_dict().
            records = [run.to_dict() for run in manifest.runs]
            chunks = [store.get(a) for r in records for a in r["chunk_addresses"]]
            return manifest, records, manifest.collected(), chunks

        default, records, collected, chunks = outputs("default")
        assert default.max_workers == 1 and default.executor == "thread"
        assert len(chunks) == 12 and len(collected) == 6
        for i, knobs in enumerate([
            {"max_workers": 1}, {"max_workers": 3}, {"batch_size": 1},
            {"batch_size": 2}, {"batch_size": 3}, {"tune": "auto"},
            {"max_workers": 3, "batch_size": 2, "executor": "thread"},
        ]):
            _, other_records, other_collected, other_chunks = outputs(f"other{i}", **knobs)
            assert other_records == records, knobs
            assert other_collected.keys() == collected.keys()
            for key, series in collected.items():
                np.testing.assert_array_equal(other_collected[key], series)
            assert len(other_chunks) == len(chunks)
            for chunk, other_chunk in zip(chunks, other_chunks):
                np.testing.assert_array_equal(other_chunk, chunk)

    def test_blocks_never_span_scenarios(self):
        from repro.scenarios.campaign import _batch_plans, plan_campaign

        plans = plan_campaign(["ssp-low", "ssp-high"], 3, n_times=24,
                              steps_per_year=24, chunk_size=24)
        blocks = _batch_plans(plans, 2)
        assert [len(b) for b in blocks] == [2, 1, 2, 1]
        for block in blocks:
            assert len({p.scenario for p in block}) == 1
        # Flattened blocks preserve campaign run order.
        assert [p.index for b in blocks for p in b] == list(range(6))

    def test_batch_size_validation(self, fitted_emulator):
        with pytest.raises(ValueError, match="batch_size"):
            run_campaign(fitted_emulator, ["constant"], batch_size=0)


class TestManifest:
    def test_chunk_layout_covers_every_run(self, serial_manifest):
        for record in serial_manifest.runs:
            assert sum(record.chunk_sizes) == record.n_times == 48
            assert record.chunk_sizes == [24, 24]

    def test_output_bytes_measured(self, serial_manifest, fitted_emulator):
        grid = fitted_emulator.training_summary.grid
        per_run = 48 * grid.npoints * 4  # float32
        assert all(r.output_bytes == per_run for r in serial_manifest.runs)
        assert serial_manifest.total_output_bytes == 6 * per_run
        assert serial_manifest.artifact_bytes == fitted_emulator.measured_artifact_bytes()

    def test_manifest_json_round_trip(self, serial_manifest, tmp_path):
        path = serial_manifest.save(tmp_path / "manifest.json")
        with open(path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["schema"] == 1
        assert loaded["n_runs"] == 6
        assert loaded["seed"] == 2024
        assert loaded["scenarios"] == SCENARIO_NAMES
        assert loaded["total_output_bytes"] == serial_manifest.total_output_bytes
        assert [r["spawn_key"] for r in loaded["runs"]] == [
            [r["realization"]] for r in loaded["runs"]
        ]
        assert "output_files" not in loaded["runs"][0]

    def test_run_lookup(self, serial_manifest):
        record = serial_manifest.run("ssp-high", 1)
        assert record.scenario == "ssp-high" and record.realization == 1
        with pytest.raises(KeyError):
            serial_manifest.run("ssp-high", 7)
        assert set(serial_manifest.collected()) == {
            (name, r) for name in SCENARIO_NAMES for r in (0, 1)
        }

    def test_collect_global_mean_series(self, fitted_emulator):
        manifest = run_campaign(fitted_emulator, ["constant"], 1, n_times=48,
                                chunk_size=24, seed=5)
        record = manifest.runs[0]
        assert record.collected.shape == (48,)
        # Area-weighted global means of temperature fields are O(280 K).
        assert 200.0 < record.collected.mean() < 330.0

    def test_collect_none_keeps_manifest_light(self, fitted_emulator):
        manifest = run_campaign(fitted_emulator, ["constant"], 1, n_times=24,
                                collect="none", seed=5)
        assert manifest.runs[0].collected is None
        assert manifest.runs[0].output_bytes > 0


class TestOutputDir:
    def test_chunks_streamed_to_disk(self, fitted_emulator, tmp_path):
        """Every chunk lands in the store, year by year, at full precision."""
        from repro.serving.request import FieldRequest, chunk_address

        manifest = run_campaign(
            fitted_emulator, ["ssp-low", "overshoot"], 1, n_times=48,
            seed=11, collect="none", store=tmp_path / "campaign-out",
        )
        store = repro.ChunkStore(tmp_path / "campaign-out")
        grid = fitted_emulator.training_summary.grid
        for record in manifest.runs:
            assert len(record.chunk_addresses) == len(record.chunk_sizes) == 2
            stream = FieldRequest(record.scenario).stream_address()
            for year, (address, expected_steps) in enumerate(
                zip(record.chunk_addresses, record.chunk_sizes)
            ):
                assert address == chunk_address(stream, record.realization, year)
                chunk = store.get(address)
                assert chunk.shape == (expected_steps,) + grid.shape
                assert chunk.dtype == np.float64


class TestIterChunkArrays:
    @pytest.fixture(scope="class")
    def written_manifest(self, fitted_emulator, tmp_path_factory):
        root = tmp_path_factory.mktemp("campaign-read-back")
        return run_campaign(
            fitted_emulator, ["ssp-low", "ssp-high"], 2, n_times=48,
            seed=2024, collect="fields", store=root,
        )

    def test_reassembles_every_run_bit_identically(self, written_manifest):
        loaded = list(iter_chunk_arrays(written_manifest))
        assert len(loaded) == 4
        for record, member in loaded:
            assert member.shape[0] == record.n_times == 48
            assert member.dtype == np.float32
            # The reader yields the float32 casts of the collected fields.
            np.testing.assert_array_equal(
                member, record.collected.astype(np.float32)
            )

    def test_accepts_json_manifest_form(self, written_manifest):
        document = json.loads(written_manifest.to_json())
        loaded = list(iter_chunk_arrays(document))
        assert len(loaded) == 4
        for (run, member), record in zip(loaded, written_manifest.runs):
            assert run["scenario"] == record.scenario
            np.testing.assert_array_equal(
                member, record.collected.astype(np.float32)
            )

    def test_missing_shard_raises_instead_of_gapping(
        self, fitted_emulator, tmp_path
    ):
        manifest = run_campaign(
            fitted_emulator, ["constant"], 1, n_times=48,
            collect="none", store=tmp_path, seed=5,
        )
        store = repro.ChunkStore(tmp_path)
        first = store.entry(manifest.runs[0].chunk_addresses[0])
        os.remove(os.path.join(store.root, first["file"]))  # lose the first chunk
        with pytest.raises(ValueError, match="missing shard"):
            list(iter_chunk_arrays(manifest))

    def test_truncated_coverage_raises(self, fitted_emulator, tmp_path):
        manifest = run_campaign(
            fitted_emulator, ["constant"], 1, n_times=48,
            collect="none", store=tmp_path, seed=6,
        )
        record = manifest.runs[0]
        record.chunk_addresses.pop()  # lose the last chunk
        record.chunk_sizes.pop()
        with pytest.raises(ValueError, match="cover 24 of 48"):
            list(iter_chunk_arrays(manifest))


class TestStorageReport:
    def test_boost_factor(self, serial_manifest):
        report = campaign_storage_report(serial_manifest)
        assert report["n_runs"] == 6
        assert report["n_scenarios"] == 3
        assert report["artifact_bytes"] == serial_manifest.artifact_bytes
        assert report["campaign_output_bytes"] == serial_manifest.total_output_bytes
        assert report["boost_factor"] == pytest.approx(
            serial_manifest.total_output_bytes / serial_manifest.artifact_bytes
        )
        # Accepts the JSON form of the manifest too.
        assert campaign_storage_report(serial_manifest.to_dict()) == report


class TestProgressHeartbeat:
    def test_callback_sees_monotonic_progress_to_completion(
        self, fitted_emulator
    ):
        beats = []
        manifest = run_campaign(fitted_emulator, ["ssp-low", "ssp-high"], 2,
                                n_times=8, seed=3, progress=beats.append)
        # One beat at start (0 done) plus one per completed block.
        assert beats[0]["runs_done"] == 0
        assert beats[-1]["runs_done"] == manifest.n_runs == 4
        done = [beat["runs_done"] for beat in beats]
        assert done == sorted(done)
        for beat in beats:
            assert beat["runs_total"] == 4
            assert set(beat) == {
                "runs_done", "runs_total", "elapsed_seconds",
                "runs_per_second", "eta_seconds",
            }
        assert beats[0]["eta_seconds"] is None
        assert beats[-1]["eta_seconds"] == pytest.approx(0.0)
        assert beats[-1]["runs_per_second"] > 0

    def test_heartbeat_beats_per_batched_block(self, fitted_emulator):
        beats = []
        run_campaign(fitted_emulator, ["ssp-low"], 4, n_times=8, seed=3,
                     batch_size=2, progress=beats.append)
        assert [beat["runs_done"] for beat in beats] == [0, 2, 4]

    def test_heartbeat_publishes_no_gauges(self, fitted_emulator):
        from repro.obs import metrics_snapshot

        beats = []
        run_campaign(fitted_emulator, ["ssp-low"], 2, n_times=8, seed=3,
                     progress=beats.append)
        run_campaign(fitted_emulator, ["ssp-low"], 2, n_times=8, seed=3)
        assert beats[-1]["runs_done"] == 2
        assert not [name for name in metrics_snapshot()["gauges"]
                    if name.startswith("campaign.progress")]

    def test_heartbeat_with_one_or_n_threads(self, fitted_emulator):
        for kwargs in ({"max_workers": 1}, {"max_workers": 3}):
            beats = []
            run_campaign(fitted_emulator, ["ssp-low"], 2, n_times=8, seed=3,
                         progress=beats.append, **kwargs)
            assert beats[-1]["runs_done"] == 2


class TestFacade:
    def test_exported_from_repro(self):
        assert repro.run_campaign is run_campaign
        for name in ("CampaignManifest", "ScenarioSpec", "SCENARIOS",
                     "list_scenarios", "register_scenario"):
            assert hasattr(repro, name), name

    def test_lazy_subpackage_exports(self):
        import repro.scenarios as scenarios

        assert scenarios.run_campaign is run_campaign
        assert scenarios.campaign.run_campaign is run_campaign
        with pytest.raises(AttributeError):
            scenarios.not_a_symbol
