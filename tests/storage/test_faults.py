"""Crash-residue suite: no kill point leaves a dangling manifest entry.

Every test stages a writer death (or torn write, or abandoned lock) at a
specific syscall, then closes with :func:`faultfs.assert_store_consistent`:
a fresh handle loads, every manifest entry decodes to its recorded
shape, and one orphan sweep leaves nothing unreferenced on disk.  The
direction of the residue is the point — crashes strand *shards* (cheap,
sweepable), never manifest *entries* (which would serve errors forever).
"""

import os

import numpy as np
import pytest

from repro.storage.chunkstore import ChunkStore

from faultfs import (  # the tests/storage directory is on sys.path (rootdir layout)
    SimulatedCrash,
    age_file,
    assert_store_consistent,
    crash_on_replace,
    crash_on_unlink,
    payload_for,
    tear_file,
)


@pytest.fixture()
def store(tmp_path):
    """A float64 store pre-loaded with two committed chunks."""
    store = ChunkStore(tmp_path, encoding="float64")
    store.put_many({"aa11": payload_for("aa11"), "bb22": payload_for("bb22")})
    return store


class TestKillBetweenShardAndManifest:
    def test_put_killed_before_commit_strands_only_a_shard(self, tmp_path, store):
        with crash_on_replace("manifest.json"):
            with pytest.raises(SimulatedCrash):
                store.put("cc33", payload_for("cc33"))
        # The shard landed (content-addressed, lock-free)...
        orphan = tmp_path / "chunks" / "cc" / "cc33.npz"
        assert orphan.exists()
        # ...but no manifest anywhere records it.
        survivor = assert_store_consistent(tmp_path)
        assert survivor.addresses() == ["aa11", "bb22"]
        assert not orphan.exists()  # the sweep reclaimed it
        assert np.array_equal(survivor.get("aa11"), payload_for("aa11"))

    def test_put_many_killed_before_commit_strands_only_shards(self, tmp_path, store):
        batch = {a: payload_for(a) for a in ("cc33", "dd44", "ee55")}
        with crash_on_replace("manifest.json"):
            with pytest.raises(SimulatedCrash):
                store.put_many(batch)
        survivor = assert_store_consistent(tmp_path)
        assert survivor.addresses() == ["aa11", "bb22"]
        # Idempotent retry after the "restart" lands the whole batch.
        retry = ChunkStore(tmp_path, encoding="float64")
        retry.put_many(batch)
        assert assert_store_consistent(tmp_path).addresses() == [
            "aa11", "bb22", "cc33", "dd44", "ee55",
        ]

    def test_killed_mid_shard_publish_commits_nothing(self, tmp_path, store):
        with crash_on_replace("cc33.npz"):
            with pytest.raises(SimulatedCrash):
                store.put("cc33", payload_for("cc33"))
        survivor = assert_store_consistent(tmp_path)
        assert survivor.addresses() == ["aa11", "bb22"]


class TestTornWrites:
    def test_torn_manifest_is_refused_not_merged_over(self, tmp_path, store):
        tear_file(tmp_path / "manifest.json")
        with pytest.raises(ValueError, match="corrupt chunk-store manifest"):
            ChunkStore(tmp_path, encoding="float64")
        # An existing handle refuses to commit over the wreckage too —
        # clobbering it would silently drop every foreign entry.
        with pytest.raises(ValueError, match="refusing to merge"):
            store.put("cc33", payload_for("cc33"))
        # Restoring the manifest (entries are content-addressed) heals
        # the store; the aborted put's shard is orphan residue.
        import json

        from repro.util.numerics import NUMERICS_REVISION
        manifest = {
            "schema": 1, "encoding": "float64",
            "numerics_revision": NUMERICS_REVISION,
            "chunks": {"aa11": store.entry("aa11"), "bb22": store.entry("bb22")},
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        survivor = assert_store_consistent(tmp_path)
        assert survivor.addresses() == ["aa11", "bb22"]

    def test_torn_shard_raises_on_get_and_never_gaps(self, tmp_path, store):
        tear_file(tmp_path / "chunks" / "aa" / "aa11.npz")
        with pytest.raises(ValueError, match="truncated or corrupt"):
            ChunkStore(tmp_path, encoding="float64").get("aa11")

    def test_stale_temp_files_are_swept_live_ones_kept(self, tmp_path, store):
        old_tmp = tmp_path / ".manifest-torn"
        old_tmp.write_text("{")
        age_file(old_tmp, 7200.0)
        fresh_tmp = tmp_path / "chunks" / "aa" / ".shard-inflight"
        fresh_tmp.write_bytes(b"partial")
        removed = store.sweep_orphans(grace_seconds=3600.0)
        assert removed == 1
        assert not old_tmp.exists()
        assert fresh_tmp.exists()  # inside the grace window: maybe live
        fresh_tmp.unlink()


class TestStaleLockRecovery:
    def test_abandoned_lock_is_broken_after_staleness(self, tmp_path, store):
        lock = tmp_path / "manifest.lock"
        lock.write_text("99999\n")
        age_file(lock, 60.0)  # holder "died" a minute ago
        recovering = ChunkStore(
            tmp_path, encoding="float64",
            lock_timeout=2.0, stale_lock_seconds=30.0,
        )
        recovering.put("cc33", payload_for("cc33"))
        assert not lock.exists()  # broken, used, released
        assert assert_store_consistent(tmp_path).addresses() == [
            "aa11", "bb22", "cc33",
        ]

    def test_live_lock_times_out_without_residue(self, tmp_path, store):
        (tmp_path / "manifest.lock").write_text("1\n")  # young: looks live
        blocked = ChunkStore(
            tmp_path, encoding="float64",
            lock_timeout=0.05, stale_lock_seconds=3600.0,
        )
        with pytest.raises(TimeoutError, match="manifest.lock"):
            blocked.put("cc33", payload_for("cc33"))
        os.unlink(tmp_path / "manifest.lock")  # holder finally releases
        survivor = assert_store_consistent(tmp_path)
        assert survivor.addresses() == ["aa11", "bb22"]


class TestCrashMidPrune:
    def test_prune_killed_mid_unlink_strands_shards_not_entries(self, tmp_path):
        store = ChunkStore(tmp_path, encoding="float64")
        for address in ("aa11", "bb22", "cc33"):
            store.put(address, payload_for(address))
        # Backdate two entries so max_age dooms exactly them.
        import json
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for address in ("aa11", "bb22"):
            manifest["chunks"][address]["stored_at"] -= 7200.0
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        store.refresh()

        with crash_on_unlink(".npz"):
            with pytest.raises(SimulatedCrash):
                store.prune(max_age=3600.0)
        # The shrunk manifest committed before any unlink: the doomed
        # entries are durably gone even though their shards linger.
        survivor = assert_store_consistent(tmp_path)
        assert survivor.addresses() == ["cc33"]
        assert np.array_equal(survivor.get("cc33"), payload_for("cc33"))

    def test_completed_prune_leaves_no_orphans_at_all(self, tmp_path):
        store = ChunkStore(tmp_path, encoding="float64")
        for address in ("aa11", "bb22", "cc33"):
            store.put(address, payload_for(address))
        result = store.prune(max_bytes=store.entry("aa11")["encoded_bytes"])
        assert result["pruned_chunks"] == 2
        assert result["remaining_chunks"] == 1
        survivor = assert_store_consistent(tmp_path)
        assert len(survivor) == 1
