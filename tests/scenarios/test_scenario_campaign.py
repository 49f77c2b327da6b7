"""Tests of the ensemble-campaign runner and its manifest."""

import json
import os
import threading

import numpy as np
import pytest

import repro
from repro.scenarios import campaign
from repro.scenarios.campaign import iter_chunk_arrays, plan_campaign, run_campaign
from repro.scenarios.registry import resolve_scenario

SCENARIO_NAMES = ["ssp-low", "ssp-medium", "ssp-high"]


@pytest.fixture(scope="module")
def serial_manifest(fitted_emulator):
    """A 3-scenario x 2-realization campaign executed serially."""
    return run_campaign(
        fitted_emulator, SCENARIO_NAMES, 2, n_times=48,
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
        with pytest.raises(ValueError, match="chunk_size"):
            plan_campaign(["constant"], 1, n_times=10, steps_per_year=5, chunk_size=2)
        assert plan_campaign(["constant"], 2, n_times=10, steps_per_year=5)[1].spawn_key == (1,)

    @pytest.mark.parametrize("knobs", [
        {"executor": "carrier-pigeon"}, {"executor": "process"},
        {"max_workers": 0}, {"max_workers": 2}, {"max_workers": 3},
        {"max_workers": True}, {"max_workers": 1, "executor": "process"},
    ], ids=repr)
    def test_removed_pool_values_are_refused(self, fitted_emulator, knobs):
        """Only the one-worker values stay; the error says why."""
        with pytest.raises(
            ValueError, match=r"max_workers.*thread pool .*were removed"
        ):
            run_campaign(fitted_emulator, ["constant"], **knobs)

    def test_run_campaign_validation(self, fitted_emulator):
        with pytest.raises(ValueError, match="n_times"):
            run_campaign(fitted_emulator, ["constant"], n_times=0)
        with pytest.raises(TypeError, match="chunk_size"):
            run_campaign(fitted_emulator, ["constant"], chunk_size=24)
        with pytest.raises(RuntimeError, match="fitted"):
            run_campaign(repro.ClimateEmulator(), ["constant"])


class TestDeterminism:
    def test_runs_reproducible_and_seed_sensitive(self, fitted_emulator,
                                                  serial_manifest):
        again = run_campaign(fitted_emulator, SCENARIO_NAMES, 2, n_times=48,
                             seed=2024, collect="fields")
        other = run_campaign(fitted_emulator, SCENARIO_NAMES, 2, n_times=48,
                             seed=99, collect="fields")
        for a, b, c in zip(serial_manifest.runs, again.runs, other.runs):
            assert np.array_equal(a.collected, b.collected)
            assert not np.array_equal(a.collected, c.collected)

    def test_realizations_are_independent_streams(self, serial_manifest):
        r0 = serial_manifest.run("ssp-low", 0).collected
        r1 = serial_manifest.run("ssp-low", 1).collected
        assert not np.array_equal(r0, r1)

    def test_run_matches_direct_emulate_stream(self, fitted_emulator,
                                               serial_manifest):
        """A campaign run is exactly emulate_stream under the spawned seed,
        and member r of emulate under the campaign's seed."""
        record = serial_manifest.run("ssp-medium", 1)
        forcing = resolve_scenario("ssp-medium").annual_forcing(2)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=2024, spawn_key=record.spawn_key)
        )
        chunks = fitted_emulator.emulate_stream(
            1, n_times=48, annual_forcing=forcing, rng=rng, chunk_size=24,
        )
        direct = np.concatenate([chunk.data[0] for chunk in chunks], axis=0)
        assert np.array_equal(record.collected, direct)
        seeded = fitted_emulator.emulate(2, n_times=48, annual_forcing=forcing, rng=2024)
        assert np.array_equal(record.collected, seeded.data[1])

    def test_artifact_path_source_matches_in_memory(self, fitted_emulator,
                                                    serial_manifest, tmp_path):
        path = repro.save(fitted_emulator, tmp_path / "emulator.npz")
        from_disk = run_campaign(path, SCENARIO_NAMES, 2, n_times=48,
                                 seed=2024, collect="fields")
        for a, b in zip(serial_manifest.runs, from_disk.runs):
            assert np.array_equal(a.collected, b.collected)


class TestBatchedSynthesis:
    """``batch_size > 1`` vectorises same-scenario runs, bit-identically."""

    def test_batched_bit_identical_to_serial(self, fitted_emulator,
                                             serial_manifest):
        for batch_size in (2, 3):
            batched = run_campaign(
                fitted_emulator, SCENARIO_NAMES, 2, n_times=48,
                seed=2024, collect="fields", batch_size=batch_size,
            )
            assert batched.batch_size == batch_size
            for serial_run, batched_run in zip(serial_manifest.runs, batched.runs):
                assert serial_run.to_dict() == batched_run.to_dict()
                assert np.array_equal(serial_run.collected, batched_run.collected)

    def test_unset_batch_size_is_capped_at_the_default_block(self, fitted_emulator):
        """Unset, a block is ``_DEFAULT_BATCH`` realizations of every scenario."""
        from repro.scenarios.campaign import _DEFAULT_BATCH

        beats = []
        manifest = run_campaign(fitted_emulator, ["ssp-low", "ssp-high"],
                                _DEFAULT_BATCH + 1, n_times=8, seed=3,
                                collect="none", progress=beats.append)
        assert manifest.batch_size == _DEFAULT_BATCH
        # Per scenario of each block, in plan order ...
        assert [block["n_runs"] for block in manifest.batch_timings] == [
            _DEFAULT_BATCH, 1, _DEFAULT_BATCH, 1,
        ]
        # ... and two blocks ran, each over both scenarios.
        assert [beat["runs_done"] for beat in beats] == [
            0, 2 * _DEFAULT_BATCH, 2 * _DEFAULT_BATCH + 2,
        ]

    def test_batched_output_files_bit_identical(self, fitted_emulator, tmp_path):
        """Run records, collected series and the chunks a campaign lands in
        its store never depend on batching or tuning."""
        def outputs(sub_dir, **knobs):
            manifest = run_campaign(
                fitted_emulator, SCENARIO_NAMES, 5, n_times=48, seed=7,
                store=tmp_path / sub_dir, **knobs,
            )
            store = repro.ChunkStore(tmp_path / sub_dir)
            # The chunk addresses are part of each run's to_dict().
            records = [run.to_dict() for run in manifest.runs]
            chunks = [store.get(a) for r in records for a in r["chunk_addresses"]]
            return manifest, records, manifest.collected(), chunks

        default, records, collected, chunks = outputs("default")
        assert default.max_workers == 1 and default.executor == "thread"
        # Unset, batch_size is min(n_realizations, 4): a block of four
        # realizations of every scenario, then a ragged one of one.  The
        # loop below holds it to one-realization blocks bit for bit.
        assert default.batch_size == 4
        assert [block["n_runs"] for block in default.batch_timings] == [4, 1] * 3
        assert len(chunks) == 30 and len(collected) == 15
        for i, knobs in enumerate([
            {"max_workers": 1}, {"batch_size": 1},
            {"batch_size": 2}, {"batch_size": 3}, {"tune": "auto"},
            {"max_workers": 1, "batch_size": 2, "executor": "thread"},
        ]):
            _, other_records, other_collected, other_chunks = outputs(f"other{i}", **knobs)
            assert other_records == records, knobs
            assert other_collected.keys() == collected.keys()
            for key, series in collected.items():
                np.testing.assert_array_equal(other_collected[key], series)
            assert len(other_chunks) == len(chunks)
            for chunk, other_chunk in zip(chunks, other_chunks):
                np.testing.assert_array_equal(other_chunk, chunk)

    def test_blocks_hold_the_same_realizations_of_every_scenario(self):
        from repro.scenarios.campaign import _batch_plans, plan_campaign

        plans = plan_campaign(["ssp-low", "ssp-high"], 3, n_times=24,
                              steps_per_year=24, chunk_size=24)
        blocks = _batch_plans(plans, 2)
        assert [len(b) for b in blocks] == [4, 2]
        assert [[(p.scenario, p.realization) for p in b] for b in blocks] == [
            [("ssp-low", 0), ("ssp-low", 1), ("ssp-high", 0), ("ssp-high", 1)],
            [("ssp-low", 2), ("ssp-high", 2)],
        ]
        # Each block keeps plan order inside; together they cover every run once.
        for block in blocks:
            assert [p.index for p in block] == sorted(p.index for p in block)
        assert sorted(p.index for b in blocks for p in b) == list(range(6))

    @pytest.mark.parametrize(
        "knobs",
        [{}, {"max_workers": 1}, {"executor": "thread"},
         {"max_workers": 1, "executor": "thread"}],
        ids=["defaults", "max_workers", "executor", "both"],
    )
    def test_blocks_run_on_the_calling_thread(self, fitted_emulator,
                                              serial_manifest, knobs):
        """Every accepted ``max_workers`` / ``executor`` value runs each
        block on the caller's thread, with the serial campaign's bits."""
        repro.obs.clear_trace()
        try:
            with repro.obs.tracing():
                manifest = run_campaign(
                    fitted_emulator, SCENARIO_NAMES, 2, n_times=48,
                    seed=2024, collect="fields", batch_size=1,
                    **knobs,
                )
            records = repro.obs.trace_records()
        finally:
            repro.obs.clear_trace()
        assert manifest.max_workers == 1 and manifest.executor == "thread"
        (total,) = [r for r in records if r["name"] == "campaign.total"]
        batches = [r for r in records if r["name"] == "campaign.batch"]
        # One block per realization, each over the three scenarios.
        assert [b["attrs"]["realizations"] for b in batches] == [[0, 1], [1, 2]]
        for batch in batches:
            assert batch["attrs"]["n_runs"] == batch["attrs"]["n_scenarios"] == 3
            assert batch["thread"] == threading.current_thread().name
            assert batch["parent_id"] == total["span_id"]
        for serial_run, run in zip(serial_manifest.runs, manifest.runs):
            assert serial_run.to_dict() == run.to_dict()
            assert np.array_equal(serial_run.collected, run.collected)

    def test_batch_size_validation(self, fitted_emulator):
        """A float or a bool is refused, not truncated into a block size."""
        for batch_size in (0, 2.5, True):
            with pytest.raises(ValueError, match="batch_size"):
                run_campaign(fitted_emulator, ["constant"], batch_size=batch_size)

    @pytest.mark.parametrize("counts", [
        {"n_realizations": True}, {"n_realizations": 2.0},
        {"n_realizations": np.float64(2)}, {"n_times": 24.9},
        {"n_times": 48.0}, {"n_times": False},
    ], ids=repr)
    def test_counts_are_refused_not_truncated(self, fitted_emulator, counts):
        """``n_times=24.9`` would run 24 steps and ``n_realizations=True``
        one realization; a float ``n_realizations`` fell into ``range``."""
        (name,) = counts
        with pytest.raises(ValueError, match=name):
            run_campaign(fitted_emulator, ["constant"], **counts)
        with pytest.raises(ValueError, match=name):
            plan_campaign(["constant"], **{"n_realizations": 1, "n_times": 24,
                                           **counts}, steps_per_year=24)

    def test_numpy_integer_counts_are_accepted(self, fitted_emulator):
        manifest = run_campaign(fitted_emulator, ["constant"], np.int64(2),
                                n_times=np.int32(8), seed=3)
        assert manifest.n_runs == 2 and manifest.n_times == 8
        assert type(manifest.runs[0].n_times) is int


class TestOneDrawPerRealizationBlock:
    """A block draws each model year once and restores it per scenario."""

    @staticmethod
    def _spans(fitted_emulator, scenarios):
        spy = fitted_emulator.training_summary.steps_per_year
        repro.obs.clear_trace()
        try:
            with repro.obs.tracing():
                run_campaign(fitted_emulator, scenarios, 4, n_times=2 * spy,
                             seed=5, batch_size=4, collect="none")
                records = repro.obs.trace_records()
        finally:
            repro.obs.clear_trace()
        return [r for r in records if r["name"].startswith("generate.")]

    def test_three_scenarios_draw_once_per_block_year(self, fitted_emulator):
        spans = self._spans(fitted_emulator, SCENARIO_NAMES)
        # 3 scenarios x 4 realizations x 2 years: one block, two years,
        # so two draws (one block per scenario drew six) ...
        assert sum(r["name"] == "generate.draw" for r in spans) == 2
        assert sum(r["name"] == "generate.correlate" for r in spans) == 2
        assert sum(r["name"] == "generate.nugget" for r in spans) == 2
        # ... and each year is restored under the three forcings.
        restores = [r["attrs"] for r in spans if r["name"] == "generate.restore"]
        assert [a["n_forcings"] for a in restores] == [3, 3]

    def test_one_scenario_draws_as_before(self, fitted_emulator):
        spans = self._spans(fitted_emulator, ["ssp-low"])
        assert sum(r["name"] == "generate.draw" for r in spans) == 2
        assert [r["attrs"]["n_forcings"] for r in spans
                if r["name"] == "generate.restore"] == [1, 1]


class TestManifest:
    def test_chunk_layout_covers_every_run(self, serial_manifest):
        for record in serial_manifest.runs:
            assert sum(record.chunk_sizes) == record.n_times == 48
            assert record.chunk_sizes == [24, 24]

    def test_output_bytes_measured(self, serial_manifest, fitted_emulator):
        grid = fitted_emulator.training_summary.grid
        per_run = 48 * grid.npoints * 8  # the stored float64
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
                                seed=5)
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


    def test_store_flush_spans_account_for_every_stored_chunk(
        self, fitted_emulator, tmp_path, monkeypatch
    ):
        """One ``campaign.store_flush`` span per commit carries its chunk
        count and raw bytes; a re-run flushes the same chunks again and the
        store skips every one of them.  With the byte budget under one
        year (as ``campaign_L64``'s years are) a block commits every year."""
        monkeypatch.setattr(campaign, "_COMMIT_BYTES", 1)
        root = tmp_path / "campaign-out"
        repro.obs.clear_trace()
        try:
            with repro.obs.tracing():
                manifest = run_campaign(
                    fitted_emulator, ["ssp-low", "ssp-high"], 2, n_times=48,
                    seed=7, collect="none", store=root, batch_size=2,
                )
                flushes = [r["attrs"] for r in repro.obs.trace_records()
                           if r["name"] == "campaign.store_flush"]
                repro.obs.clear_trace()
                run_campaign(
                    fitted_emulator, ["ssp-low", "ssp-high"], 2, n_times=48,
                    seed=7, collect="none", store=root, batch_size=2,
                )
                rerun = repro.obs.trace_records()
        finally:
            repro.obs.clear_trace()
        store = repro.ChunkStore(root)
        addresses = [a for r in manifest.runs for a in r.chunk_addresses]
        # One block (two realizations of both scenarios) over two years:
        # one flush per year, each of scenarios x realizations chunks.
        assert [f["n_chunks"] for f in flushes] == [4, 4]
        assert sum(f["n_chunks"] for f in flushes) == len(addresses) == 8
        assert sum(f["bytes"] for f in flushes) == sum(
            store.get(a).nbytes for a in addresses
        )
        assert [r["attrs"] for r in rerun
                if r["name"] == "campaign.store_flush"] == flushes
        assert not [r for r in rerun if r["name"] == "chunkstore.put_many"]

class TestGroupCommit:
    """Store-backed blocks stage model years until ``_COMMIT_BYTES`` and
    commit them in one ``put_many``, and the rest at the block's last
    year; records and stored chunks are those of per-year commits."""

    YEARS = 5
    DEFAULT_BUDGET = campaign._COMMIT_BYTES
    PUT_MANY = staticmethod(repro.ChunkStore.put_many)

    def run(self, emulator, root, monkeypatch, budget):
        monkeypatch.setattr(campaign, "_COMMIT_BYTES", budget)
        calls = []

        def spy(store, chunks):
            calls.append(len(chunks))
            return self.PUT_MANY(store, chunks)

        monkeypatch.setattr(repro.ChunkStore, "put_many", spy)
        steps = emulator.training_summary.steps_per_year
        manifest = run_campaign(
            emulator, ["ssp-low", "ssp-high"], 3, n_times=self.YEARS * steps,
            seed=11, collect="fields", store=root, batch_size=2,
        )
        return manifest, calls

    def test_commits_when_the_budget_is_reached_bit_identically(
        self, fitted_emulator, tmp_path, monkeypatch
    ):
        yearly, yearly_calls = self.run(fitted_emulator, tmp_path / "yearly", monkeypatch, 1)
        # Blocks: realizations {0, 1} (4 chunks a year) then {2} (2 a year).
        assert yearly_calls == [4] * self.YEARS + [2] * self.YEARS
        chunk_bytes = yearly.runs[0].output_bytes // self.YEARS
        # 2.5 years of the first block: it commits after its third year
        # and at its last; the second block reaches the budget at its last.
        grouped, grouped_calls = self.run(
            fitted_emulator, tmp_path / "grouped", monkeypatch, 10 * chunk_bytes
        )
        assert grouped_calls == [12, 8, 10]
        _, default_calls = self.run(
            fitted_emulator, tmp_path / "default", monkeypatch, self.DEFAULT_BUDGET
        )
        assert default_calls == [4 * self.YEARS, 2 * self.YEARS]

        assert len(grouped.runs) == len(yearly.runs) == 6
        for a, b in zip(grouped.runs, yearly.runs):
            assert (a.scenario, a.realization, a.chunk_sizes, a.output_bytes) == (
                b.scenario, b.realization, b.chunk_sizes, b.output_bytes
            )
            assert a.chunk_addresses == b.chunk_addresses
            np.testing.assert_array_equal(a.collected, b.collected)
        stores = [repro.ChunkStore(tmp_path / sub) for sub in ("yearly", "grouped", "default")]
        addresses = [a for r in yearly.runs for a in r.chunk_addresses]
        assert all(sorted(store.addresses()) == sorted(addresses) for store in stores)
        for address in addresses:
            reference = stores[0].get(address).tobytes()
            assert all(store.get(address).tobytes() == reference for store in stores[1:])


class TestMemory:
    """A store-backed campaign holds at most the commit budget plus one
    model year of a block, however long the record."""

    @pytest.fixture(scope="class")
    def emulator_l32(self):
        sims = repro.Era5LikeGenerator(
            repro.Era5LikeConfig(lmax=32, n_years=2, steps_per_year=12,
                                 n_ensemble=2),
            seed=1,
        ).generate()
        return repro.fit(sims, repro.EmulatorConfig(
            lmax=32, var_order=1, tile_size=64, rho_grid=(0.5,)
        ))

    @staticmethod
    def peak(emulator, root, n_years):
        import tracemalloc

        spy = emulator.training_summary.steps_per_year
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_campaign(emulator, ["ssp-low"], 4, n_times=n_years * spy,
                         seed=1, collect="none", store=root)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_the_years(self, emulator_l32, tmp_path, monkeypatch):
        """With the budget under one year each year is committed before the
        next is drawn.  Flushed once per block, the staged years made the
        traced peak grow with the record: 7.7 MB at 2 years, 55.7 MB at 32
        (24 steps a year)."""
        monkeypatch.setattr(campaign, "_COMMIT_BYTES", 1)
        self.peak(emulator_l32, tmp_path / "warm", 1)  # plans, trend groups, first-touch caches
        short = self.peak(emulator_l32, tmp_path / "2", 2)
        long = self.peak(emulator_l32, tmp_path / "32", 32)
        assert long <= 1.2 * short, (short, long)

    def test_a_long_record_commits_a_few_times_within_the_budget(
        self, emulator_l32, tmp_path, monkeypatch
    ):
        """1 scenario x 4 realizations x 32 years at L = 32 (0.8 MB a year,
        25.5 MB in all): at most four commits, and the traced peak over a
        two-year run's stays within the budget plus one year."""
        commits = []
        put_many = repro.ChunkStore.put_many

        def spy(store, chunks):
            commits.append(sum(a.nbytes for a in chunks.values()))
            return put_many(store, chunks)

        self.peak(emulator_l32, tmp_path / "warm", 1)
        short = self.peak(emulator_l32, tmp_path / "2", 2)
        monkeypatch.setattr(repro.ChunkStore, "put_many", spy)
        long = self.peak(emulator_l32, tmp_path / "32", 32)
        year = sum(commits) // 32
        assert len(commits) <= 4, commits
        assert long <= short + campaign._COMMIT_BYTES + year, (short, long)


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
            assert member.dtype == np.float64
            # The reader yields the stored float64: the collected fields.
            np.testing.assert_array_equal(member, record.collected)

    def test_accepts_json_manifest_form(self, written_manifest):
        document = json.loads(written_manifest.to_json())
        loaded = list(iter_chunk_arrays(document))
        assert len(loaded) == 4
        for (run, member), record in zip(loaded, written_manifest.runs):
            assert run["scenario"] == record.scenario
            np.testing.assert_array_equal(member, record.collected)

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


class TestStorageNumbers:
    def test_boost_and_throughput_are_read_from_the_manifest(
        self, fitted_emulator, serial_manifest
    ):
        manifest = serial_manifest
        assert manifest.n_runs == 6
        assert manifest.scenario_names == SCENARIO_NAMES
        assert manifest.artifact_bytes == fitted_emulator.measured_artifact_bytes()
        # One small artifact emits more bytes than it holds.
        assert manifest.total_output_bytes / manifest.artifact_bytes > 1.0
        wall = manifest.total_wall_seconds
        assert wall > 0.0
        assert manifest.runs_per_second == manifest.n_runs / wall
        assert manifest.output_bytes_per_second == manifest.total_output_bytes / wall
        document = manifest.to_dict()
        assert (document["n_runs"], document["scenarios"]) == (6, SCENARIO_NAMES)
        assert document["artifact_bytes"] == manifest.artifact_bytes
        assert document["total_output_bytes"] == manifest.total_output_bytes
        assert document["timing"]["total_wall_seconds"] == wall
        assert document["timing"]["runs_per_second"] == manifest.runs_per_second
        assert document["timing"]["output_bytes_per_second"] == (
            manifest.output_bytes_per_second
        )


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

    @pytest.mark.parametrize("knobs", [
        {}, {"batch_size": 2}, {"batch_size": 3}, {"tune": "auto"},
        {"max_workers": 1, "executor": "thread"},
    ], ids=repr)
    def test_heartbeat_beats_once_per_block_on_the_calling_thread(
        self, fitted_emulator, knobs
    ):
        beats, threads = [], []

        def progress(info):
            beats.append(info["runs_done"])
            threads.append(threading.current_thread().name)

        manifest = run_campaign(fitted_emulator, ["ssp-low", "ssp-high"], 3,
                                n_times=8, seed=3, progress=progress, **knobs)
        # A block runs the same realizations of both scenarios; its
        # ``ssp-low`` entries are the blocks in execution order.
        blocks = [2 * block["n_runs"] for block in manifest.batch_timings
                  if block["scenario"] == "ssp-low"]
        assert beats == [0] + np.cumsum(blocks).tolist()
        assert beats[-1] == manifest.n_runs == 6
        assert set(threads) == {threading.current_thread().name}


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
