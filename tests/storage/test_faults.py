"""Crash-residue suite: no kill point leaves a dangling manifest entry.

Every test stages a writer death (or torn write, or abandoned lock) at a
specific syscall, then closes with :func:`faultfs.assert_store_consistent`:
a fresh handle loads, every entry decodes to its recorded shape, and one
orphan sweep leaves nothing unreferenced on disk.  The direction of the
residue is the point — crashes strand *shards* and *journals* (cheap,
sweepable), never *entries* (which would serve errors forever).
"""

import json
import os

import numpy as np
import pytest

from repro.obs import trace_records, tracing
from repro.storage.chunkstore import ChunkStore

from faultfs import (  # the tests/storage directory is on sys.path (rootdir layout)
    SimulatedCrash,
    age_file,
    assert_store_consistent,
    crash_on_open,
    crash_on_replace,
    crash_on_unlink,
    payload_for,
    tear_file,
)


def _header(root) -> dict:
    return json.loads((root / "manifest.json").read_text())


@pytest.fixture()
def store(tmp_path):
    """A float64 store pre-loaded with two committed chunks."""
    store = ChunkStore(tmp_path, encoding="float64")
    store.put_many({"aa11": payload_for("aa11"), "bb22": payload_for("bb22")})
    return store


class TestKillBetweenShardAndManifest:
    def test_put_killed_before_commit_strands_only_a_shard(self, tmp_path, store):
        with crash_on_open("journal-"):
            with pytest.raises(SimulatedCrash):
                store.put("cc33", payload_for("cc33"))
        # The shard landed (content-addressed, lock-free)...
        orphan = tmp_path / "chunks" / "cc" / "cc33.bin"
        assert orphan.exists()
        # ...but neither the header nor the journal records it.
        survivor = assert_store_consistent(tmp_path)
        assert survivor.addresses() == ["aa11", "bb22"]
        assert not orphan.exists()  # the sweep reclaimed it
        assert np.array_equal(survivor.get("aa11"), payload_for("aa11"))

    def test_put_many_killed_before_commit_strands_only_shards(self, tmp_path, store):
        batch = {a: payload_for(a) for a in ("cc33", "dd44", "ee55")}
        with crash_on_open("journal-"):
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
        with crash_on_replace("cc33.bin"):
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
        # Restoring the header (entries are content-addressed) heals the
        # store; the aborted put's shard and the old journal are orphans.
        from repro.util.numerics import NUMERICS_REVISION
        (tmp_path / "journal-000099.jsonl").write_text("")
        manifest = {
            "schema": 2, "encoding": "float64",
            "numerics_revision": NUMERICS_REVISION,
            "journal": "journal-000099.jsonl",
            "chunks": {"aa11": store.entry("aa11"), "bb22": store.entry("bb22")},
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        survivor = assert_store_consistent(tmp_path)
        assert survivor.addresses() == ["aa11", "bb22"]

    def test_torn_shard_raises_on_get_and_never_gaps(self, tmp_path, store):
        tear_file(tmp_path / "chunks" / "aa" / "aa11.bin")
        with pytest.raises(ValueError, match="truncated or corrupt") as refusal:
            ChunkStore(tmp_path, encoding="float64").get("aa11")
        assert "aa11.bin" in str(refusal.value)

    def test_overlong_shard_raises_on_get(self, tmp_path, store):
        shard = tmp_path / "chunks" / "aa" / "aa11.bin"
        shard.write_bytes(shard.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="truncated or corrupt") as refusal:
            ChunkStore(tmp_path, encoding="float64").get("aa11")
        assert "aa11.bin" in str(refusal.value)

    def test_flipped_payload_byte_raises_on_get(self, tmp_path, store):
        """A bit flip inside the stored payload is caught, not served."""
        shard = tmp_path / store.entry("aa11")["file"]
        data = bytearray(shard.read_bytes())
        start = data.find(payload_for("aa11").tobytes())
        assert start >= 0  # the payload is stored as its raw bytes
        data[start + 100] ^= 0x01
        shard.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="truncated or corrupt") as refusal:
            ChunkStore(tmp_path, encoding="float64").get("aa11")
        assert store.entry("aa11")["file"] in str(refusal.value)

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


class TestJournal:
    def test_torn_tail_is_ignored_then_truncated_by_the_next_put(
        self, tmp_path, store
    ):
        store.put("cc33", payload_for("cc33"))  # one journal line
        journal = tmp_path / _header(tmp_path)["journal"]
        committed = journal.read_bytes()
        assert committed.count(b"\n") == 1
        # A writer killed mid-append: half of a record, no newline.
        torn = json.dumps({"put": {"dd44": store.entry("cc33")}}).encode()
        with open(journal, "ab") as handle:
            handle.write(torn[: len(torn) // 2])
        # Readers ignore it: a fresh handle and a live one see 3 chunks.
        assert ChunkStore(tmp_path).addresses() == ["aa11", "bb22", "cc33"]
        assert store.refresh() == 0 and "dd44" not in store
        # The next writer truncates it under the lock, then appends.
        store.put("ee55", payload_for("ee55"))
        lines = journal.read_bytes().splitlines(keepends=True)
        assert lines[0] == committed and len(lines) == 2
        assert lines[1].endswith(b"\n") and b"ee55" in lines[1]
        survivor = assert_store_consistent(tmp_path)
        assert survivor.addresses() == ["aa11", "bb22", "cc33", "ee55"]

    def test_compaction_killed_before_the_header_replace(self, tmp_path, store):
        store.put("cc33", payload_for("cc33"))
        old = _header(tmp_path)
        before = {p.name for p in tmp_path.glob("journal-*.jsonl")}
        with crash_on_replace("manifest.json"):
            with pytest.raises(SimulatedCrash):
                store.prune(max_bytes=0)
        # The new journal exists, but the header still names the old one
        # and nothing was pruned: the old pair is whole.
        after = {p.name for p in tmp_path.glob("journal-*.jsonl")}
        assert old["journal"] in before and len(after - before) == 1
        assert _header(tmp_path) == old
        survivor = assert_store_consistent(tmp_path)
        assert survivor.addresses() == ["aa11", "bb22", "cc33"]
        # The sweep compacted and reclaimed every retired journal.
        assert [p.name for p in tmp_path.glob("journal-*.jsonl")] == [
            _header(tmp_path)["journal"]
        ]

    def test_a_relative_root_keeps_its_live_journal(self, tmp_path, monkeypatch):
        """The sweep compares paths built from the root as given."""
        monkeypatch.chdir(tmp_path)
        store = ChunkStore("rel")
        store.put("aa11", payload_for("aa11"))
        store.put("bb22", payload_for("bb22"))  # a journal line
        store.sweep_orphans(grace_seconds=0.0)  # compacts, then sweeps
        age_file(tmp_path / "rel" / _header(tmp_path / "rel")["journal"], 60.0)
        store.sweep_orphans(grace_seconds=0.0)  # the live journal stays
        store.put("cc33", payload_for("cc33"))
        assert ChunkStore("rel").addresses() == ["aa11", "bb22", "cc33"]
        assert_store_consistent(tmp_path / "rel")

    def test_a_schema_1_root_is_refused(self, tmp_path, store):
        manifest = {"schema": 1, "encoding": "float64", "chunks": {}}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="schema 1") as refusal:
            ChunkStore(tmp_path, encoding="float64")
        assert "schema 2" in str(refusal.value)


class TestStaleLockRecovery:
    def test_abandoned_lock_is_broken_after_staleness(self, tmp_path, store):
        lock = tmp_path / "manifest.lock"
        lock.write_text("99999\n")
        age_file(lock, 60.0)  # holder "died" a minute ago
        recovering = ChunkStore(
            tmp_path, encoding="float64",
            lock_timeout=2.0, stale_lock_seconds=30.0,
        )
        with tracing():
            recovering.put("cc33", payload_for("cc33"))
            commits = [r["attrs"] for r in trace_records()
                       if r["name"] == "chunkstore.commit"]
        assert not lock.exists()  # broken, used, released
        assert commits[-1]["stale_locks_broken"] == 1
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
        # A budget of one chunk dooms the two oldest: aa11 and bb22.
        with crash_on_unlink(".bin"):
            with pytest.raises(SimulatedCrash):
                store.prune(max_bytes=store.entry("cc33")["encoded_bytes"])
        # The compaction committed before any unlink: the doomed entries
        # are durably gone even though their shards linger.
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
