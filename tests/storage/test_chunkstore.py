"""Tests of the persistent quantized chunk store."""

import io
import json
import os

import numpy as np
import pytest

import repro
from repro.obs import clear_trace, trace_records, tracing
from repro.storage import chunkstore
from repro.storage.chunkstore import _CHUNK_ENCODINGS, ChunkStore
from repro.util.numerics import NUMERICS_REVISION


@pytest.fixture()
def payload(rng):
    # Temperature-like values: O(280 K) with O(10 K) spread.
    return 280.0 + 10.0 * rng.standard_normal((6, 9, 15))


class TestRoundTrip:
    def test_float64_is_bit_lossless(self, tmp_path, payload):
        store = ChunkStore(tmp_path, encoding="float64")
        store.put("aa11", payload)
        assert np.array_equal(store.get("aa11"), payload)
        assert store.lossless
        assert store.max_abs_error() == 0.0

    def test_int16_quantization_error_is_bounded_and_honest(self, tmp_path, payload):
        store = ChunkStore(tmp_path, encoding="int16")
        entry = store.put("aa11", payload)
        decoded = store.get("aa11")
        measured = float(np.max(np.abs(decoded - payload)))
        assert measured == entry["max_abs_error"] == store.max_abs_error()
        # Half the value range over 2**15 levels bounds the error.
        half_range = 0.5 * (payload.max() - payload.min())
        assert measured <= half_range / 32767.0 * 1.000001
        assert entry["encoded_bytes"] == payload.size * 2

    def test_constant_chunk_quantizes_exactly(self, tmp_path):
        store = ChunkStore(tmp_path, encoding="int16")
        constant = np.full((2, 3, 4), 7.25)
        store.put("bb22", constant)
        assert np.array_equal(store.get("bb22"), constant)
        assert store.max_abs_error() == 0.0

    def test_missing_chunk_returns_none(self, tmp_path):
        store = ChunkStore(tmp_path)
        assert store.get("nope") is None
        assert store.entry("nope") is None
        assert "nope" not in store


class TestManifest:
    def test_persists_across_reopen(self, tmp_path, payload):
        first = ChunkStore(tmp_path, encoding="float64")
        first.put("aa11", payload)
        first.put("bb22", payload * 2.0)
        second = ChunkStore(tmp_path, encoding="float64")
        assert len(second) == 2
        assert second.addresses() == ["aa11", "bb22"]
        assert np.array_equal(second.get("bb22"), payload * 2.0)

    def test_reopen_with_wrong_encoding_raises(self, tmp_path, payload):
        ChunkStore(tmp_path, encoding="int16").put("aa11", payload)
        with pytest.raises(ValueError, match="encoding"):
            ChunkStore(tmp_path, encoding="float64")

    def test_unknown_encoding_raises(self, tmp_path):
        with pytest.raises(ValueError, match="encoding"):
            ChunkStore(tmp_path, encoding="int8")
        assert "int8" not in _CHUNK_ENCODINGS

    def test_float32_encoding_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="unknown chunk encoding 'float32'"):
            ChunkStore(tmp_path / "store", encoding="float32")
        assert _CHUNK_ENCODINGS == ("float64", "int16")
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("encoding", _CHUNK_ENCODINGS)
    def test_a_float32_root_is_refused_by_name(self, tmp_path, encoding):
        """A header naming an encoding this code does not write refuses to open."""
        os.makedirs(tmp_path / "chunks")
        (tmp_path / "journal-0.jsonl").write_bytes(b"")
        header = {"schema": 2, "encoding": "float32", "chunks": {},
                  "numerics_revision": NUMERICS_REVISION,
                  "journal": "journal-0.jsonl"}
        (tmp_path / "manifest.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match="'float32', which this code "
                                             "does not support") as refusal:
            ChunkStore(tmp_path, encoding=encoding)
        assert str(tmp_path) in str(refusal.value)

    def test_put_is_idempotent(self, tmp_path, payload):
        store = ChunkStore(tmp_path)
        first = store.put("aa11", payload)
        second = store.put("aa11", np.zeros_like(payload))  # ignored: same address
        assert first == second
        assert np.array_equal(store.get("aa11"), payload)

    def test_manifest_is_valid_json_with_schema(self, tmp_path, payload):
        store = ChunkStore(tmp_path, encoding="int16")
        store.put("aa11", payload)
        with open(os.path.join(str(tmp_path), "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["schema"] == 2
        assert manifest["encoding"] == "int16"
        assert manifest["numerics_revision"] == NUMERICS_REVISION
        assert os.path.isfile(tmp_path / manifest["journal"])
        entry = manifest["chunks"]["aa11"]  # the first put compacts
        assert entry["shape"] == list(payload.shape)
        assert entry["dtype"] == "<i2" and isinstance(entry["crc32"], int)
        assert "scale" in entry and "offset" in entry
        # The shard is the payload's raw bytes and nothing else.
        shard = (tmp_path / entry["file"]).read_bytes()
        assert len(shard) == entry["encoded_bytes"] == payload.size * 2

    def test_manifest_bytes_are_what_json_dump_writes(self, tmp_path):
        """``handle.write(json.dumps(...))`` is the C encoder, not a new format:
        the file is byte for byte what streaming ``json.dump`` produced."""
        store = ChunkStore(tmp_path, encoding="int16")
        payload = 280.0 + 10.0 * np.random.default_rng(0).standard_normal((6, 9, 15))
        for i in range(5):
            store.put(f"{i:04x}", payload + i)
        written = (tmp_path / "manifest.json").read_bytes()
        streamed = io.StringIO()
        json.dump(json.loads(written), streamed, sort_keys=True)
        assert written == streamed.getvalue().encode("utf-8")

    def test_corrupt_schema_raises(self, tmp_path):
        ChunkStore(tmp_path)
        with open(os.path.join(str(tmp_path), "manifest.json"), "w") as handle:
            json.dump({"schema": 99}, handle)
        with pytest.raises(ValueError, match="schema"):
            ChunkStore(tmp_path)


class TestNumericsRevision:
    """A store answers only for the numerics revision that wrote its chunks."""

    CHUNK = np.linspace(250.0, 320.0, 24).reshape(2, 3, 4)

    def _manifest(self, root) -> dict:
        with open(os.path.join(str(root), "manifest.json")) as handle:
            return json.load(handle)

    def _expect_refusal(self, root, stored, current, open_store):
        with pytest.raises(ValueError) as refusal:
            open_store()
        message = str(refusal.value)
        assert str(root) in message
        assert f"numerics revision {stored}" in message
        assert f"numerics revision {current}" in message

    def test_store_of_another_revision_is_refused_everywhere(
        self, tmp_path, monkeypatch, fitted_emulator
    ):
        root = tmp_path / "store"
        ChunkStore(root).put("aa11", self.CHUNK)
        assert self._manifest(root)["numerics_revision"] == NUMERICS_REVISION
        path = repro.save(fitted_emulator, tmp_path / "emulator.npz")
        bumped = NUMERICS_REVISION + 1
        monkeypatch.setattr(chunkstore, "NUMERICS_REVISION", bumped)
        for open_store in (
            lambda: ChunkStore(root),
            lambda: repro.run_campaign(path, ["ssp-medium"], 1, n_times=24, store=root),
            lambda: repro.serve(path, store=root),
        ):
            self._expect_refusal(root, NUMERICS_REVISION, bumped, open_store)
        # Nothing was written over it: the old code still reads its store.
        monkeypatch.undo()
        assert np.array_equal(ChunkStore(root).get("aa11"), self.CHUNK)

    def test_open_handle_refuses_to_commit_over_a_foreign_revision(
        self, tmp_path, monkeypatch
    ):
        store = ChunkStore(tmp_path)
        store.put("aa11", self.CHUNK)
        monkeypatch.setattr(chunkstore, "NUMERICS_REVISION", NUMERICS_REVISION + 1)
        with pytest.raises(ValueError, match="numerics revision"):
            store.put("bb22", self.CHUNK)
        assert sorted(self._manifest(tmp_path)["chunks"]) == ["aa11"]

    def test_unstamped_manifest_with_chunks_is_revision_zero(self, tmp_path):
        ChunkStore(tmp_path).put("aa11", self.CHUNK)
        manifest = self._manifest(tmp_path)
        del manifest["numerics_revision"]
        with open(os.path.join(str(tmp_path), "manifest.json"), "w") as handle:
            json.dump(manifest, handle)
        self._expect_refusal(
            tmp_path, 0, NUMERICS_REVISION, lambda: ChunkStore(tmp_path)
        )

    def test_empty_store_adopts_the_current_revision(self, tmp_path):
        ChunkStore(tmp_path)  # an empty root, stamped by the code that made it
        for stale in ({"numerics_revision": NUMERICS_REVISION + 7}, {}):
            manifest = {
                "schema": 2, "encoding": "float64", "chunks": {},
                "journal": self._manifest(tmp_path)["journal"], **stale,
            }
            with open(os.path.join(str(tmp_path), "manifest.json"), "w") as handle:
                json.dump(manifest, handle)
            store = ChunkStore(tmp_path)  # nothing stored, nothing to refuse
            assert len(store) == 0
            store.put("aa11", self.CHUNK)
            assert self._manifest(tmp_path)["numerics_revision"] == NUMERICS_REVISION
            store.prune(max_bytes=0)
            assert len(ChunkStore(tmp_path)) == 0


class TestPutMany:
    def test_batch_writes_once_and_skips_existing(self, tmp_path, payload):
        store = ChunkStore(tmp_path)
        store.put("aa11", payload)
        written = store.put_many({
            "aa11": np.zeros_like(payload),  # present: skipped
            "bb22": payload + 1.0,
            "cc33": payload + 2.0,
        })
        assert written == 2
        assert len(store) == 3
        assert np.array_equal(store.get("aa11"), payload)  # untouched
        assert np.array_equal(store.get("cc33"), payload + 2.0)
        assert store.put_many({"aa11": payload}) == 0

    def test_another_shape_at_a_stored_address_raises_and_writes_nothing(self, tmp_path):
        """A stored address is skipped only for an array of its shape:
        ``put`` and ``put_many`` refuse another one, naming the address
        and both shapes, before any shard of the batch is written."""
        store = ChunkStore(tmp_path)
        chunk = np.full((6, 9, 15), 280.0)
        store.put("aa11", chunk)

        def files():
            return sorted(p.relative_to(tmp_path) for p in (tmp_path / "chunks").rglob("*"))

        before = files()
        with pytest.raises(ValueError, match=r"aa11 .* \(6, 9, 15\), not the \(6, 11, 19\)"):
            store.put("aa11", np.zeros((6, 11, 19)))
        with pytest.raises(ValueError, match=r"aa11 .* \(6, 9, 15\), not the \(9, 15\)"):
            store.put_many({"bb22": chunk + 1.0, "aa11": chunk[0]})
        assert files() == before
        assert store.addresses() == ["aa11"]
        assert np.array_equal(store.get("aa11"), chunk)
        assert store.put_many({"aa11": chunk + 5.0}) == 0  # same shape: skipped

    def test_a_stale_handle_overwrites_no_foreign_chunk_of_another_shape(self, tmp_path):
        """A handle whose view predates another handle's commit learns of it
        only inside its own transaction: the shape check runs there, before
        any staged shard is renamed, so the other writer's chunk survives."""
        stale = ChunkStore(tmp_path)
        other = ChunkStore(tmp_path)
        theirs = np.arange(6.0).reshape(2, 3)
        other.put("aa11", theirs)
        with pytest.raises(ValueError, match=r"aa11 .* \(2, 3\), not the \(4, 5\)"):
            stale.put("aa11", np.ones((4, 5)))
        with pytest.raises(ValueError, match=r"aa11 .* \(2, 3\), not the \(4, 5\)"):
            stale.put_many({"bb22": np.ones((4, 5)), "aa11": np.ones((4, 5))})
        files = sorted(p.name for p in (tmp_path / "chunks").rglob("*"))
        assert files == ["aa", "aa11.bin"]  # no temp file, no sibling shard
        assert np.array_equal(other.get("aa11"), theirs)
        assert np.array_equal(ChunkStore(tmp_path).get("aa11"), theirs)
        assert stale.addresses() == ["aa11"]

    def test_manifest_merges_across_store_handles(self, tmp_path, payload):
        # Two handles on one directory (two services, or two processes):
        # a write from one must not clobber entries the other persisted
        # after this handle loaded the manifest.
        first = ChunkStore(tmp_path)
        second = ChunkStore(tmp_path)
        first.put_many({"aa11": payload, "bb22": payload + 1.0})
        second.put("cc33", payload + 2.0)  # stale in-memory view of second
        reopened = ChunkStore(tmp_path)
        assert reopened.addresses() == ["aa11", "bb22", "cc33"]
        assert np.array_equal(reopened.get("aa11"), payload)
        assert np.array_equal(reopened.get("cc33"), payload + 2.0)


class TestCommitCost:
    """A commit's disk work does not grow with the store (no clocks)."""

    def test_a_put_at_10k_entries_appends_one_line_and_nothing_else(
        self, tmp_path, monkeypatch
    ):
        entry = ChunkStore(tmp_path).put("0" * 64, np.ones(3))
        header_path = tmp_path / "manifest.json"
        header = json.loads(header_path.read_text())
        header["chunks"] = {f"{i:064x}": entry for i in range(10_000)}
        header_path.write_text(json.dumps(header))
        writer, reader = ChunkStore(tmp_path), ChunkStore(tmp_path)
        assert len(writer) == len(reader) == 10_000
        journal = tmp_path / header["journal"]
        before, committed = os.stat(header_path), journal.read_bytes()

        writer.put("new", np.zeros(3))
        after = os.stat(header_path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        grown = journal.read_bytes()
        line = grown[len(committed):]
        assert grown.startswith(committed)
        assert line.endswith(b"\n") and line.count(b"\n") == 1

        # The second handle catches up by reading exactly that line: no
        # header re-read, and its journal offset moves by the line.
        header_reads = []
        read_header = reader._read_header_locked
        monkeypatch.setattr(reader, "_read_header_locked",
                            lambda: header_reads.append(1) or read_header())
        offset = reader._journal_offset
        assert reader.refresh() == 1 and "new" in reader
        assert header_reads == []
        assert reader._journal_offset - offset == len(line)
        assert reader.refresh() == 0


class TestCommitSpan:
    def test_every_transaction_is_one_commit_span(self, tmp_path):
        with tracing():
            store = ChunkStore(tmp_path)
            store.put("aa11", np.ones(3))  # into an empty store: compacts
            store.put("bb22", np.zeros(3))  # one journal line
            store.put_many({"cc33": np.ones(2), "dd44": np.zeros(2)})
            store.prune(max_bytes=0)
            store.sweep_orphans()
            records = trace_records()
        commits = [r["attrs"] for r in records if r["name"] == "chunkstore.commit"]
        # create, put, put, put_many (the journal outgrows the snapshot:
        # it compacts), prune, sweep
        assert [c["n_entries"] for c in commits] == [0, 1, 2, 4, 0, 0]
        journal_bytes = [c["journal_bytes"] for c in commits]
        assert journal_bytes[2] > 0
        assert journal_bytes[:2] + journal_bytes[3:] == [0] * 5


class TestSpanAttributes:
    """The chunk-store spans carry the byte and chunk counts of their work."""

    @pytest.fixture(autouse=True)
    def empty_trace_buffer(self):
        clear_trace()
        yield
        clear_trace()

    @staticmethod
    def _attrs(records, name):
        return [r["attrs"] for r in records if r["name"] == name]

    @pytest.mark.parametrize("encoding", _CHUNK_ENCODINGS)
    def test_put_span_carries_the_float64_bytes(self, tmp_path, encoding):
        store = ChunkStore(tmp_path, encoding=encoding)
        with tracing():
            store.put("aa11", np.arange(20.0).reshape(4, 5))
            store.put("aa11", np.zeros((4, 5)))  # stored already: no write
            puts = self._attrs(trace_records(), "chunkstore.put")
        assert puts == [{"bytes": 160, "encoding": encoding}]

    @pytest.mark.parametrize("encoding", _CHUNK_ENCODINGS)
    def test_put_many_span_counts_only_new_chunks(self, tmp_path, encoding):
        store = ChunkStore(tmp_path, encoding=encoding)
        store.put("aa11", np.ones(3))
        with tracing():
            written = store.put_many({
                "aa11": np.ones(3), "bb22": np.ones(4), "cc33": np.ones((2, 3)),
            })
            assert store.put_many({"bb22": np.ones(4)}) == 0
            batches = self._attrs(trace_records(), "chunkstore.put_many")
        assert written == 2
        assert batches == [{"n_chunks": 2, "bytes": (4 + 6) * 8,
                            "encoding": encoding}]

    @pytest.mark.parametrize("encoding", _CHUNK_ENCODINGS)
    def test_get_span_carries_the_decoded_bytes(self, tmp_path, encoding):
        store = ChunkStore(tmp_path, encoding=encoding)
        store.put("aa11", np.linspace(-1.0, 1.0, 12).reshape(3, 4))
        with tracing():
            chunk = store.get("aa11")
            assert store.get("ff99") is None  # a miss opens no read span
            gets = self._attrs(trace_records(), "chunkstore.get")
        assert gets == [{"bytes": chunk.nbytes, "encoding": encoding}]
        assert chunk.nbytes == 96

    def test_a_commit_without_a_stale_lock_counts_no_breaks(self, tmp_path):
        with tracing():
            ChunkStore(tmp_path).put("aa11", np.ones(3))
            commits = self._attrs(trace_records(), "chunkstore.commit")
        assert commits and all("stale_locks_broken" not in c for c in commits)


class TestNonFiniteRejection:
    """Regression: lossy encodings must reject NaN/Inf before writing.

    The old ``int16`` encode of a NaN-bearing chunk cast NaN to 0
    (``RuntimeWarning: invalid value encountered in cast``), silently
    storing an all-zero payload with ``offset = nan`` and a
    ``max_abs_error: nan`` manifest entry — corruption dressed as a
    stored chunk.
    """

    def _chunks_on_disk(self, tmp_path):
        shard_root = os.path.join(str(tmp_path), "chunks")
        return [
            os.path.join(dirpath, name)
            for dirpath, _, names in os.walk(shard_root)
            for name in names
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_put_non_finite_raises_before_any_write(self, tmp_path, bad):
        store = ChunkStore(tmp_path, encoding="int16")
        chunk = np.array([[1.0, 2.0], [bad, 4.0]])
        with pytest.raises(ValueError, match="non-finite"):
            store.put("bad1", chunk)
        # No manifest entry, no orphan shard, in memory or on disk.
        assert "bad1" not in store
        assert len(store) == 0
        assert self._chunks_on_disk(tmp_path) == []
        with open(os.path.join(str(tmp_path), "manifest.json")) as handle:
            assert json.load(handle)["chunks"] == {}
        # The store keeps working for finite chunks afterwards.
        store.put("good", np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert len(store) == 1

    def test_put_many_validates_whole_batch_before_writing(self, tmp_path, payload):
        store = ChunkStore(tmp_path, encoding="int16")
        bad = payload.copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            store.put_many({"aa11": payload, "bb22": bad})
        # The finite sibling must not be left behind as an orphan shard.
        assert len(store) == 0
        assert self._chunks_on_disk(tmp_path) == []

    def test_lossless_float64_still_round_trips_non_finite(self, tmp_path):
        store = ChunkStore(tmp_path, encoding="float64")
        chunk = np.array([1.0, np.nan, np.inf, -np.inf])
        entry = store.put("aa11", chunk)
        assert entry["max_abs_error"] == 0.0
        np.testing.assert_array_equal(store.get("aa11"), chunk)
        assert store.max_abs_error() == 0.0

    @pytest.mark.parametrize("nan_position", ["first", "last"])
    def test_error_reporting_is_nan_proof_for_preexisting_manifests(
        self, tmp_path, payload, nan_position
    ):
        """A corrupt pre-fix manifest entry yields NaN whatever the order.

        ``max()`` over floats is order-dependent under NaN
        (``max(1.0, nan) == 1.0`` but ``max(nan, 1.0)`` is NaN); the
        store must report the corruption deterministically.
        """
        import math

        store = ChunkStore(tmp_path, encoding="int16")
        store.put("good", payload)
        manifest_path = os.path.join(str(tmp_path), "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        # Both entries go through journal records, in the chosen order.
        good = manifest["chunks"].pop("good")
        records = [
            {"put": {"bad": dict(good, max_abs_error=float("nan"))}},
            {"put": {"good": good}},
        ]
        if nan_position == "last":
            records.reverse()
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with open(os.path.join(str(tmp_path), manifest["journal"]), "w") as handle:
            for record in records:  # allow_nan writes a NaN literal
                handle.write(json.dumps(record) + "\n")

        reopened = ChunkStore(tmp_path, encoding="int16")
        assert len(reopened) == 2
        assert math.isnan(reopened.max_abs_error())
        assert math.isnan(reopened.stats()["max_abs_error"])


class TestStats:
    def test_stats_totals(self, tmp_path, payload):
        store = ChunkStore(tmp_path, encoding="int16")
        store.put("aa11", payload)
        store.put("bb22", payload + 1.0)
        stats = store.stats()
        assert stats["n_chunks"] == 2
        assert stats["decoded_bytes"] == 2 * payload.nbytes
        assert stats["encoded_bytes"] == 2 * payload.size * 2
        assert stats["compression_factor"] == pytest.approx(4.0)
        assert stats["lossless"] is False
        assert stats["max_abs_error"] > 0.0
