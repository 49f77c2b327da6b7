"""The unified-storage acceptance suite: campaigns pre-warm serving.

One store root, both tiers: ``run_campaign(store=...)`` lands every
chunk under the serving tier's ``(stream, realization, year)`` content
addresses, and an :class:`EmulationService` over the same root then
serves the whole campaign with **zero** cold synthesis flights,
bit-identical (float64 store) to direct emulation.  The suite also pins
the reader-integrity contract for the store path of
``iter_chunk_arrays`` — corrupted-on-disk fixtures raise named errors,
never yield corrupt members — and the storage numbers the store's and
the service's ``stats()`` carry.
"""

import json
import shutil

import numpy as np
import pytest

import repro
from repro.scenarios.campaign import iter_chunk_arrays, run_campaign
from repro.serving.request import FieldRequest, chunk_address
from repro.serving.service import EmulationService
from repro.storage.chunkstore import ChunkStore

SPY = 24  # steps_per_year of the shared fixture ensemble
SCENARIOS = ["ssp-low", "ssp-high"]
N_REALIZATIONS = 2
N_YEARS = 2
SEED = 7


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    return tmp_path_factory.mktemp("campaign-store")


@pytest.fixture(scope="module")
def store_manifest(fitted_emulator, store_root):
    """A store-backed campaign: 2 scenarios x 2 realizations x 2 years."""
    return run_campaign(
        fitted_emulator, SCENARIOS, N_REALIZATIONS,
        n_times=N_YEARS * SPY, seed=SEED, store=store_root, collect="none",
    )


def canonical_stream(emulator, scenario, realization, n_years):
    """Reference realization ``r``: the canonical year-chunked stream."""
    rng = np.random.default_rng(
        np.random.SeedSequence(SEED, spawn_key=(realization,))
    )
    chunks = emulator.emulate_stream(
        n_realizations=1, n_times=n_years * SPY, annual_forcing=scenario,
        rng=rng, chunk_size=SPY, include_nugget=True,
    )
    return np.concatenate([c.data for c in chunks], axis=1)[0]


class TestCampaignWritesTheServingTier:
    def test_store_holds_every_serving_address(self, store_manifest, store_root):
        store = ChunkStore(store_root)
        assert len(store) == len(SCENARIOS) * N_REALIZATIONS * N_YEARS
        for scenario in SCENARIOS:
            stream = FieldRequest(scenario).stream_address()
            for realization in range(N_REALIZATIONS):
                for year in range(N_YEARS):
                    assert chunk_address(stream, realization, year) in store
        assert store.max_abs_error() == 0.0  # lossless by default

    def test_manifest_records_the_store_tier(self, fitted_emulator, store_manifest,
                                             store_root):
        header = store_manifest.store
        assert header["root"] == str(store_root)
        # Every store is float64, so the header names no encoding; it
        # records the grid the reader checks every chunk against.
        assert "encoding" not in header
        assert header["grid"] == list(fitted_emulator.training_summary.grid.shape)
        assert set(header["stream_addresses"]) == set(SCENARIOS)
        for run in store_manifest.runs:
            assert len(run.chunk_addresses) == N_YEARS
            assert run.spawn_key == (run.realization,)  # serving seeding
        # The header survives the JSON round trip.
        document = json.loads(json.dumps(store_manifest.to_dict()))
        assert document["store"]["root"] == str(store_root)

    def test_serving_the_same_root_needs_zero_synthesis(
        self, fitted_emulator, store_manifest, store_root
    ):
        service = EmulationService(
            fitted_emulator, seed=SEED, store=ChunkStore(store_root)
        )
        for scenario in SCENARIOS:
            for realization in range(N_REALIZATIONS):
                served = service.get(FieldRequest(
                    scenario, realization=realization,
                    year_start=0, year_stop=N_YEARS,
                ))
                reference = canonical_stream(
                    fitted_emulator, scenario, realization, N_YEARS
                )
                assert np.array_equal(served, reference)  # bit-identical
                assert np.isfinite(served).all()
        stats = service.stats()
        assert stats["synthesis"]["flights"] == 0  # zero cold synthesis
        assert stats["store_chunk_hits"] == (
            len(SCENARIOS) * N_REALIZATIONS * N_YEARS
        )

    def test_rerun_finds_chunks_already_stored(self, fitted_emulator,
                                               store_manifest, store_root):
        before = ChunkStore(store_root).stats()
        again = run_campaign(
            fitted_emulator, SCENARIOS, N_REALIZATIONS,
            n_times=N_YEARS * SPY, seed=SEED, store=store_root, collect="none",
        )
        after = ChunkStore(store_root).stats()
        assert after["n_chunks"] == before["n_chunks"]
        assert [r.chunk_addresses for r in again.runs] == [
            r.chunk_addresses for r in store_manifest.runs
        ]


class TestOneAnswerPerStoredChunk:
    def test_reader_and_service_return_the_same_float64(
        self, fitted_emulator, store_manifest, store_root
    ):
        service = repro.serve(fitted_emulator, seed=SEED, store=store_root)
        for run, member in iter_chunk_arrays(store_manifest):
            for year in range(N_YEARS):
                served = service.get(FieldRequest(
                    run.scenario, realization=run.realization,
                    year_start=year, year_stop=year + 1,
                ))
                stored = member[year * SPY:(year + 1) * SPY]
                assert member.dtype == served.dtype == np.float64
                assert np.array_equal(stored, served)
        assert service.stats()["synthesis"]["flights"] == 0


class TestStoreCampaignValidation:
    def test_store_campaigns_cover_whole_years(self, fitted_emulator, tmp_path):
        with pytest.raises(ValueError, match="whole model years"):
            run_campaign(fitted_emulator, ["constant"], n_times=SPY + 1,
                         store=tmp_path / "s")

    def test_seeding_ignores_the_store(
        self, fitted_emulator, tmp_path
    ):
        """One seeding rule: a store changes where chunks land, not their bits."""
        def campaign(**kwargs):
            return run_campaign(fitted_emulator, SCENARIOS, 2, n_times=SPY,
                                seed=SEED, **kwargs)

        bare = campaign()
        stored = campaign(store=tmp_path / "s")
        assert bare.store is None
        assert all(r.chunk_addresses == [] for r in bare.runs)
        for bare_run, stored_run in zip(bare.runs, stored.runs, strict=True):
            assert bare_run.spawn_key == stored_run.spawn_key == (
                bare_run.realization,
            )
            assert np.array_equal(bare_run.collected, stored_run.collected)


class TestStoreReader:
    def test_reader_accepts_json_manifest_and_explicit_roots(
        self, store_manifest, store_root
    ):
        document = json.loads(json.dumps(store_manifest.to_dict()))
        by_header = list(iter_chunk_arrays(document))
        by_path = list(iter_chunk_arrays(store_manifest, store=str(store_root)))
        by_handle = list(iter_chunk_arrays(
            store_manifest, store=ChunkStore(store_root)
        ))
        # A manifest written before the header dropped "encoding" and
        # recorded "grid" still reads.
        older = json.loads(json.dumps(store_manifest.to_dict()))
        older["store"]["encoding"] = "float64"
        del older["store"]["grid"]
        by_older = list(iter_chunk_arrays(older))
        assert len(by_header) == len(by_path) == len(by_handle) == len(by_older) == 4
        for (_, a), (_, b), (_, c), (_, d) in zip(by_header, by_path, by_handle, by_older):
            assert np.array_equal(a, b) and np.array_equal(a, c) and np.array_equal(a, d)

    @pytest.mark.parametrize("where", ["removed root", "mistyped store"])
    def test_a_missing_root_is_refused_and_not_created(
        self, fitted_emulator, tmp_path, where
    ):
        """Reading creates nothing: no store at the root is the error."""
        root = tmp_path / "store"
        manifest = run_campaign(fitted_emulator, ["constant"], n_times=SPY,
                                seed=SEED, store=root, collect="none")
        if where == "removed root":
            shutil.rmtree(root)
            missing, store = root, None
        else:
            missing = tmp_path / "stroe"
            store = str(missing)
        with pytest.raises(ValueError, match="no chunk store") as refusal:
            list(iter_chunk_arrays(manifest.to_dict(), store=store))
        assert str(missing) in str(refusal.value)
        assert not missing.exists()

    def test_npz_manifest_cannot_be_read_from_a_store(
        self, fitted_emulator, store_root
    ):
        """No chunk addresses, nothing to read: a named error, never a KeyError."""
        manifest = run_campaign(fitted_emulator, ["constant"], n_times=SPY,
                                collect="none")
        # The JSON a pre-store (NPZ-only) campaign left behind: no store
        # header, no chunk_addresses, its shard files listed instead.
        legacy = manifest.to_dict()
        del legacy["store"]
        for run in legacy["runs"]:
            del run["chunk_addresses"]
            run["output_files"] = ["run000_constant_r0_chunk0000.npz"]
        for document in (manifest, manifest.to_dict(), legacy):
            with pytest.raises(ValueError, match="records no chunk_addresses"):
                list(iter_chunk_arrays(document))
            with pytest.raises(ValueError, match="records no chunk_addresses"):
                list(iter_chunk_arrays(document, store=str(store_root)))


class TestCorruptedOnDiskFixtures:
    @pytest.fixture()
    def corruptible(self, fitted_emulator, tmp_path):
        manifest = run_campaign(
            fitted_emulator, ["ssp-low"], 1, n_times=N_YEARS * SPY, seed=SEED,
            store=tmp_path / "store", collect="none",
        )
        return manifest, ChunkStore(tmp_path / "store")

    def test_pruned_chunk_raises_not_gaps(self, corruptible):
        manifest, store = corruptible
        store.prune(max_bytes=0)
        with pytest.raises(ValueError, match="pruned or never committed"):
            list(iter_chunk_arrays(manifest, store=store))

    def test_shard_rewritten_with_wrong_size_raises(self, corruptible):
        manifest, store = corruptible
        address = manifest.runs[0].chunk_addresses[0]
        shard = store.entry(address)["file"]
        np.zeros((2, 2)).tofile(str(store.root) + "/" + shard)
        with pytest.raises(ValueError, match="truncated or corrupt") as refusal:
            list(iter_chunk_arrays(manifest, store=store))
        assert shard in str(refusal.value)

    def test_truncated_shard_raises(self, corruptible):
        manifest, store = corruptible
        address = manifest.runs[0].chunk_addresses[1]
        path = str(store.root) + "/" + store.entry(address)["file"]
        with open(path, "r+b") as handle:
            handle.truncate(16)
        with pytest.raises(ValueError, match="truncated or corrupt"):
            list(iter_chunk_arrays(manifest, store=store))

    def test_tampered_manifest_layout_raises(self, corruptible):
        manifest, store = corruptible
        document = manifest.to_dict()
        document["runs"][0]["chunk_addresses"] = (
            document["runs"][0]["chunk_addresses"][:1]
        )
        with pytest.raises(ValueError, match="manifest is corrupt"):
            list(iter_chunk_arrays(document, store=store))
        # Per-chunk lengths that disagree with the stored chunks.
        document = manifest.to_dict()
        document["runs"][0]["chunk_sizes"] = [SPY - 4, SPY + 4]
        first = document["runs"][0]["chunk_addresses"][0]
        with pytest.raises(ValueError, match="another grid or length") as refusal:
            list(iter_chunk_arrays(document, store=store))
        assert first in str(refusal.value)
        assert f"{(SPY, 9, 15)}" in str(refusal.value)
        assert f"{(SPY - 4, 9, 15)}" in str(refusal.value)
        # Chunks that do not add up to the recorded run length.
        document = manifest.to_dict()
        document["runs"][0]["n_times"] = 3 * SPY
        with pytest.raises(ValueError, match="cover 48 of 72"):
            list(iter_chunk_arrays(document, store=store))
        # A chunk of a foreign grid under one of the run's addresses.
        store.put("foreign", np.zeros((SPY, 3, 5)))
        document = manifest.to_dict()
        document["runs"][0]["chunk_addresses"][1] = "foreign"
        with pytest.raises(ValueError, match="another grid") as refusal:
            list(iter_chunk_arrays(document, store=store))
        assert "chunk foreign" in str(refusal.value)
        assert f"{(SPY, 3, 5)}, not the {(SPY, 9, 15)}" in str(refusal.value)


class TestStorageNumbers:
    def test_store_stats_count_the_campaign_losslessly(self, store_manifest,
                                                       store_root):
        stats = ChunkStore(store_root).stats()
        assert stats["root"] == str(store_root)
        assert stats["encoding"] == "float64"
        assert stats["lossless"] is True
        assert stats["n_chunks"] == len(SCENARIOS) * N_REALIZATIONS * N_YEARS
        assert stats["max_abs_error"] == 0.0
        # The store re-serves more bytes than the artifact holds.
        assert stats["decoded_bytes"] / store_manifest.artifact_bytes > 1.0

    def test_a_service_over_the_prewarmed_root_synthesizes_nothing(
        self, fitted_emulator, store_manifest, store_root
    ):
        service = EmulationService(
            fitted_emulator, seed=SEED, store=ChunkStore(store_root)
        )
        for scenario in SCENARIOS:
            service.get(FieldRequest(scenario, realization=0,
                                     year_start=0, year_stop=N_YEARS))
        stats = service.stats()
        assert stats["synthesis"]["chunks"] == 0
        assert stats["store_chunk_hits"] == len(SCENARIOS) * N_YEARS
        assert stats["store"]["lossless"] is True
        assert stats["store"]["max_abs_error"] == 0.0
        assert stats["served_bytes"] == len(SCENARIOS) * N_YEARS * SPY * (
            service.grid.npoints * 8
        )
