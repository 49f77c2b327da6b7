"""The unified-storage acceptance suite: campaigns pre-warm serving.

One store root, both tiers: ``run_campaign(store=...)`` lands every
chunk under the serving tier's ``(stream, realization, year)`` content
addresses, and an :class:`EmulationService` over the same root then
serves the whole campaign with **zero** cold synthesis flights,
bit-identical (float64 store) to direct emulation.  The suite also pins
the reader-integrity contract for the store path of
``iter_chunk_arrays`` — corrupted-on-disk fixtures raise named errors,
never yield corrupt members — and the cross-tier accounting.
"""

import json

import numpy as np
import pytest

from repro.scenarios.campaign import iter_chunk_arrays, run_campaign
from repro.serving.request import FieldRequest, chunk_address
from repro.serving.service import EmulationService
from repro.storage.accounting import (
    campaign_storage_report,
    cross_tier_storage_report,
)
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

    def test_manifest_records_the_store_tier(self, store_manifest, store_root):
        header = store_manifest.store
        assert header["root"] == str(store_root)
        assert header["encoding"] == "float64"
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


class TestStoreCampaignValidation:
    def test_non_canonical_chunking_is_rejected(self, fitted_emulator, tmp_path):
        with pytest.raises(ValueError, match="canonical year chunking"):
            run_campaign(fitted_emulator, ["constant"], n_times=2 * SPY,
                         chunk_size=SPY // 2, store=tmp_path / "s")
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
        assert len(by_header) == len(by_path) == len(by_handle) == 4
        for (_, a), (_, b), (_, c) in zip(by_header, by_path, by_handle):
            assert np.array_equal(a, b) and np.array_equal(a, c)

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

    def test_shard_rewritten_with_wrong_shape_raises(self, corruptible):
        manifest, store = corruptible
        address = manifest.runs[0].chunk_addresses[0]
        shard = store.entry(address)["file"]
        np.savez(str(store.root) + "/" + shard, data=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="decodes to shape"):
            list(iter_chunk_arrays(manifest, store=store))

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
        with pytest.raises(ValueError, match="truncated or rewritten"):
            list(iter_chunk_arrays(document, store=store))
        # Chunks that do not add up to the recorded run length.
        document = manifest.to_dict()
        document["runs"][0]["n_times"] = 3 * SPY
        with pytest.raises(ValueError, match="cover 48 of 72"):
            list(iter_chunk_arrays(document, store=store))
        # A chunk of a foreign grid under one of the run's addresses.
        store.put("foreign", np.zeros((SPY, 3, 5)))
        document = manifest.to_dict()
        document["runs"][0]["chunk_addresses"][1] = "foreign"
        with pytest.raises(ValueError, match="share one grid"):
            list(iter_chunk_arrays(document, store=store))


class TestCrossTierAccounting:
    def test_campaign_report_gains_a_store_tier(self, store_manifest,
                                                store_root):
        report = campaign_storage_report(
            store_manifest, store=ChunkStore(store_root)
        )
        tier = report["store"]
        assert tier["encoding"] == "float64"
        assert tier["n_chunks"] == len(SCENARIOS) * N_REALIZATIONS * N_YEARS
        assert tier["max_abs_error"] == 0.0
        assert tier["store_boost_factor"] > 1.0
        # The manifest's own store header is enough — no handle needed.
        assert campaign_storage_report(store_manifest)["store"][
            "n_chunks"
        ] == tier["n_chunks"]

    def test_cross_tier_report_shows_full_prewarming(
        self, fitted_emulator, store_manifest, store_root
    ):
        service = EmulationService(
            fitted_emulator, seed=SEED, store=ChunkStore(store_root)
        )
        for scenario in SCENARIOS:
            service.get(FieldRequest(scenario, realization=0,
                                     year_start=0, year_stop=N_YEARS))
        report = cross_tier_storage_report(store_manifest, service)
        assert report["synthesized_chunks"] == 0
        assert report["prewarmed_fraction"] == 1.0
        assert report["store_lossless"] is True
        assert report["store_max_abs_error"] == 0.0
        assert report["cross_tier_boost_factor"] > 1.0
        assert report["emitted_bytes"] == (
            report["campaign_output_bytes"] + report["served_bytes"]
        )
        assert report["campaign"]["boost_factor"] > 1.0
        assert report["serving"]["boost_factor"] > 0.0
