"""Persistent, manifest-indexed store of content-addressed field chunks.

The system's single persistence layer: a directory of NPZ shards keyed
by chunk content-address, indexed by one ``manifest.json``.  The serving
tier reads and write-throughs it, and campaigns (``run_campaign(store=...)``)
write straight into it, so a chunk written once is served forever without
re-synthesis — across processes and restarts.

Three encodings trade bytes for fidelity:

* ``"float64"`` (default) — bit-lossless: ``get`` returns exactly the
  array that was ``put``, preserving the service's bit-exactness
  contract through the persistent tier.
* ``"float32"`` — half the bytes; round-trip error is float32 rounding
  (measured per chunk and recorded in the manifest).
* ``"int16"`` — opt-in quantized tier: values are stored as
  ``int16`` with a per-chunk ``scale``/``offset`` (midrange/halfrange
  affine map), a quarter of the float64 bytes.  The *measured* maximum
  absolute reconstruction error of every chunk is recorded in the
  manifest, so consumers can report exactly how lossy the tier is.

Lossy encodings reject non-finite input: a ``put`` of a chunk holding
NaN/Inf under ``"float32"``/``"int16"`` raises ``ValueError`` before any
shard is written (quantising against a NaN midrange would store an
all-zero payload with ``offset = nan``), while the bit-lossless
``"float64"`` tier accepts any bit pattern.

A store has one encoding for its whole lifetime (recorded in the
manifest; reopening with a different one raises) and decodes every
``get`` back to ``float64``.  The manifest also records the
:data:`~repro.util.numerics.NUMERICS_REVISION` of the code that wrote
it; a store holding chunks of another revision refuses to open, because
its bits are not what this code synthesises for the same addresses.

Concurrency — the commit protocol
---------------------------------
Within a process one ``threading.Lock`` guards the in-memory manifest
view.  Across processes, every manifest mutation is a *transaction*
guarded by a ``manifest.lock`` file acquired with
``O_CREAT | O_EXCL`` (atomic on every platform the repo targets):

1. acquire ``manifest.lock`` (bounded wait, stale-lock breaking);
2. re-read ``manifest.json`` — the on-disk copy is authoritative while
   the lock is held, so entries committed by other processes are never
   lost and entries pruned by other processes are never resurrected;
3. apply the mutation (entries are content-addressed and immutable, so
   first-writer-wins ``setdefault`` is always safe);
4. atomically replace ``manifest.json`` (temp file + ``os.replace``,
   so lock-free readers always observe a complete manifest);
5. release the lock.

Shard files are written *before* the transaction (content-addressed
writes are idempotent and need no lock) and each writer re-checks its
shard file still exists inside the transaction, which closes the race
against a concurrent ``prune``.  A crash between shard write and
manifest commit therefore leaves only an unreferenced shard — never a
manifest entry pointing at a missing shard — and
:meth:`ChunkStore.sweep_orphans` reclaims such shards after a grace
window.  A lock left behind by a killed process is broken after
``stale_lock_seconds``.

:meth:`ChunkStore.refresh` picks up foreign commits without reopening
(cheap: one ``stat`` compares the manifest's ``(mtime_ns, size)``
token), and ``get``/``in`` auto-refresh on a miss, so N campaign
workers and an ``EmulationService`` can share one store root live.
GC is explicit: :meth:`ChunkStore.prune` drops entries by age and/or a
byte budget (manifest entries are removed durably *before* their shard
files are unlinked, so a crash mid-prune strands shards, never
entries), and :meth:`ChunkStore.sweep_orphans` removes unreferenced
shards and stale temp files.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
import threading
import time
import zipfile

import numpy as np

from repro.obs import counter_add, span
from repro.util.numerics import NUMERICS_REVISION

__all__ = ["ChunkStore"]

#: Supported chunk encodings, lossless first.
_CHUNK_ENCODINGS = ("float64", "float32", "int16")

_MANIFEST_SCHEMA = 1

#: Seconds between lock-acquisition attempts while another process
#: holds ``manifest.lock``.
_LOCK_POLL_SECONDS = 0.002


def _now() -> float:
    """Wall-clock seconds for storage bookkeeping only.

    Feeds entry ``stored_at`` timestamps (GC age), stale-lock detection
    and orphan-sweep grace windows — never any emulated output, which
    stays a pure function of ``(artifact, seed, request)``.
    """
    # reprolint: allow[determinism] GC timestamps and lock staleness only; emulated outputs never read this
    return time.time()


def _deadline_clock() -> float:
    """Monotonic seconds for the lock-acquisition deadline.

    Not a hot-path measurement (those go through ``repro.obs`` spans):
    a wall-clock deadline would jump under clock adjustment and either
    spin forever or give up instantly.
    """
    # reprolint: allow[telemetry-hygiene] lock-wait deadline arithmetic, not a timing measurement
    return time.monotonic()


def _require_finite(array: np.ndarray, encoding: str) -> None:
    """Reject non-finite chunks for lossy encodings, before anything is written.

    An ``int16`` encode of a chunk containing NaN/Inf would silently
    quantise against a non-finite midrange — NaN casts to 0, so the
    stored payload is all zeros with ``offset = nan`` and the manifest
    records ``max_abs_error: nan`` — irrecoverable corruption dressed as
    a stored chunk.  A ``float32`` encode keeps the non-finite values
    but its measured round-trip error degenerates to NaN, poisoning the
    manifest's error accounting the same way.  The lossless ``float64``
    encoding round-trips any bit pattern and stays permissive.
    """
    if encoding != "float64" and not np.isfinite(array).all():
        raise ValueError(
            f"chunk contains non-finite values (NaN/Inf), which the lossy "
            f"{encoding!r} encoding cannot represent faithfully; store "
            f"non-finite chunks with the lossless 'float64' encoding"
        )
    if encoding == "float32" and array.size:
        peak = float(np.max(np.abs(array)))
        if peak > float(np.finfo(np.float32).max):
            # The cast would overflow finite values to inf — a
            # non-finite stored payload dressed as a lossy round-trip.
            raise ValueError(
                f"chunk magnitude {peak:.6g} overflows the 'float32' "
                f"encoding (max ~3.4e38); store it with 'float64' or the "
                f"range-scaled 'int16' encoding"
            )


def _encode(array: np.ndarray, encoding: str, *, validated: bool = False):
    """Encode a float64 array; returns ``(payload, scale, offset, max_abs_error)``.

    Raises ``ValueError`` for non-finite input under a lossy encoding —
    callers invoke this before any shard file is created, so a rejected
    chunk leaves neither a shard nor a manifest entry behind.
    ``validated=True`` skips the finiteness scan for callers that
    already ran :func:`_require_finite` on the exact same array
    (the batched ``put_many`` pre-validation), so no chunk is scanned
    twice.
    """
    array = np.asarray(array, dtype=np.float64)
    if not validated:
        _require_finite(array, encoding)
    if encoding == "float64":
        return array, None, None, 0.0
    if encoding == "float32":
        encoded = array.astype(np.float32)
        err = float(np.max(np.abs(encoded.astype(np.float64) - array))) if array.size else 0.0
        return encoded, None, None, err
    if encoding == "int16":
        lo = float(array.min()) if array.size else 0.0
        hi = float(array.max()) if array.size else 0.0
        offset = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        scale = half / 32767.0 if half > 0.0 else 1.0
        if scale == 0.0:
            # half is subnormal and the quotient underflowed; any normal
            # scale quantizes the whole (tiny) range to level 0 exactly.
            scale = float(np.finfo(np.float64).tiny)
        # Clip before the int16 cast: rounding of (array - offset)/scale
        # can land a hair above 32767 at the range endpoints, and the
        # cast would wrap that to -32768 (a full-range error).
        levels = np.clip(np.round((array - offset) / scale), -32767.0, 32767.0)
        encoded = levels.astype(np.int16)
        decoded = encoded.astype(np.float64) * scale + offset
        err = float(np.max(np.abs(decoded - array))) if array.size else 0.0
        return encoded, scale, offset, err
    raise ValueError(
        f"unknown chunk encoding {encoding!r}; expected one of {_CHUNK_ENCODINGS}"
    )


def _decode(payload: np.ndarray, scale, offset) -> np.ndarray:
    """Decode a stored payload back to float64."""
    if payload.dtype == np.int16:
        return payload.astype(np.float64) * float(scale) + float(offset)
    return payload.astype(np.float64)


class ChunkStore:
    """Read-through / write-through persistent tier for served chunks.

    Parameters
    ----------
    root:
        Directory of the store (created if missing).  Holds
        ``manifest.json`` plus shard files under ``chunks/``.
    encoding:
        One of ``"float64"``, ``"float32"`` or ``"int16"``.  ``"float64"`` is lossless;
        ``"int16"`` is the opt-in quantized tier (4x smaller, measured
        ``max_abs_error`` recorded per chunk).  Reopening an existing
        store with a different encoding raises ``ValueError``.
    lock_timeout:
        Seconds a manifest transaction waits for ``manifest.lock``
        before raising ``TimeoutError``.  Transactions are one JSON
        round-trip, so contention is short; the default outlasts any
        realistic writer burst.
    stale_lock_seconds:
        Age after which a ``manifest.lock`` left behind by a killed
        process is broken.  Must exceed the longest plausible
        transaction (a manifest read + write); breaking is a
        crash-recovery path, not a scheduling mechanism.

    Examples
    --------
    >>> import numpy as np, tempfile
    >>> store = ChunkStore(tempfile.mkdtemp(), encoding="float64")
    >>> entry = store.put("abc123", np.ones((2, 3)))
    >>> bool(np.array_equal(store.get("abc123"), np.ones((2, 3))))
    True
    """

    def __init__(
        self,
        root: "str | os.PathLike",
        encoding: str = "float64",
        *,
        lock_timeout: float = 10.0,
        stale_lock_seconds: float = 30.0,
    ):
        if encoding not in _CHUNK_ENCODINGS:
            raise ValueError(
                f"unknown chunk encoding {encoding!r}; expected one of {_CHUNK_ENCODINGS}"
            )
        self.root = os.fspath(root)
        self.encoding = str(encoding)
        self.lock_timeout = float(lock_timeout)
        self.stale_lock_seconds = float(stale_lock_seconds)
        self._lock = threading.Lock()
        self._manifest_path = os.path.join(self.root, "manifest.json")
        self._lock_path = os.path.join(self.root, "manifest.lock")
        os.makedirs(os.path.join(self.root, "chunks"), exist_ok=True)
        self._chunks: dict[str, dict] = {}
        self._manifest_token: "tuple | None" = None
        with self._lock:
            if os.path.exists(self._manifest_path):
                self._refresh_locked(count=False)
            else:
                # Create the empty manifest through the same transaction
                # path as every other mutation, so two processes racing
                # to initialise one root serialise cleanly.
                self._commit_locked(lambda chunks: None)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def lossless(self) -> bool:
        """Whether ``get`` returns bit-identical arrays (float64 encoding)."""
        return self.encoding == "float64"

    def __len__(self) -> int:
        with self._lock:
            return len(self._chunks)

    def __contains__(self, address: str) -> bool:
        address = str(address)
        with self._lock:
            if address in self._chunks:
                return True
            # A miss may just mean another process committed since our
            # last load; one cheap stat settles it.
            self._refresh_locked()
            return address in self._chunks

    def addresses(self) -> list[str]:
        """Every stored chunk address, sorted."""
        with self._lock:
            return sorted(self._chunks)

    # ------------------------------------------------------------------ #
    # The cross-process commit protocol
    # ------------------------------------------------------------------ #
    def _shard_path(self, address: str) -> str:
        return os.path.join(self.root, "chunks", address[:2], f"{address}.npz")

    @contextlib.contextmanager
    def _flock_locked(self):
        """Hold ``manifest.lock`` (O_CREAT|O_EXCL) for one transaction.

        Bounded wait: raises ``TimeoutError`` after ``lock_timeout``
        seconds.  A lock older than ``stale_lock_seconds`` is treated as
        abandoned by a killed process and broken (counted on the
        ``chunkstore.lock_breaks`` counter).  Caller holds the thread
        lock, so one process never contends with itself.
        """
        deadline = _deadline_clock() + self.lock_timeout
        while True:
            try:
                fd = os.open(
                    self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                break
            except FileExistsError:
                if self._break_stale_lock_locked():
                    continue
                if _deadline_clock() >= deadline:
                    raise TimeoutError(
                        f"timed out after {self.lock_timeout:.1f}s waiting for "
                        f"chunk-store lock {self._lock_path}; if its holder is "
                        f"dead it will be broken once it is "
                        f"{self.stale_lock_seconds:.1f}s old"
                    )
                time.sleep(_LOCK_POLL_SECONDS)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            yield
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._lock_path)

    def _break_stale_lock_locked(self) -> bool:
        """Remove ``manifest.lock`` if its holder looks dead; True if removed.

        Staleness is mtime age: live holders create-and-release within a
        single JSON round-trip, so a lock older than
        ``stale_lock_seconds`` belongs to a killed process.  The unlink
        races other breakers benignly (``FileNotFoundError`` means
        someone else already broke it).
        """
        try:
            age = _now() - os.stat(self._lock_path).st_mtime
        except FileNotFoundError:
            return True  # released between our open attempt and the stat
        if age <= self.stale_lock_seconds:
            return False
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self._lock_path)
        counter_add("chunkstore.lock_breaks")
        return True

    def _load_chunks_locked(self) -> "dict[str, dict]":
        """The on-disk chunk mapping, strictly validated.

        A manifest that fails to parse raises — silently treating it as
        empty would let the next commit overwrite it and drop every
        entry another process had committed (dangling shards dressed as
        a clean store).
        """
        if not os.path.exists(self._manifest_path):
            return {}
        try:
            with open(self._manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"corrupt chunk-store manifest at {self._manifest_path}: {exc}; "
                f"refusing to merge over it — restore the manifest from the "
                f"shard files (entries are content-addressed) or move it aside"
            ) from exc
        if manifest.get("schema") != _MANIFEST_SCHEMA:
            raise ValueError(
                f"unsupported chunk-store manifest schema "
                f"{manifest.get('schema')!r} at {self._manifest_path}"
            )
        if manifest.get("encoding") != self.encoding:
            raise ValueError(
                f"store at {self.root} was created with encoding "
                f"{manifest.get('encoding')!r}; reopen with that encoding "
                f"instead of {self.encoding!r}"
            )
        chunks = dict(manifest.get("chunks", {}))
        # Absent = written before the stamp existed.  An empty store has
        # no bits to answer for: it adopts the current revision with its
        # next commit.
        stored = manifest.get("numerics_revision", 0)
        if chunks and stored != NUMERICS_REVISION:
            raise ValueError(
                f"store at {self.root} holds chunks computed under numerics "
                f"revision {stored!r}, but this code is numerics revision "
                f"{NUMERICS_REVISION}: the stored fields are not the bits this "
                f"code synthesises for the same requests — write to a fresh "
                f"root, or read this one with the code that wrote it"
            )
        return chunks

    def _dump_manifest_locked(self, chunks: "dict[str, dict]") -> None:
        """Atomically replace ``manifest.json`` (temp file + ``os.replace``).

        Lock-free readers therefore always observe a complete manifest;
        a crash mid-write leaves at worst a ``.manifest-*`` temp file,
        reclaimed by :meth:`sweep_orphans`.
        """
        manifest = {
            "schema": _MANIFEST_SCHEMA,
            "encoding": self.encoding,
            "numerics_revision": NUMERICS_REVISION,
            "chunks": chunks,
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".manifest-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # dumps, not dump: the C encoder, the same bytes.
                handle.write(json.dumps(manifest, sort_keys=True))
            os.replace(tmp, self._manifest_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _stat_token_locked(self) -> "tuple | None":
        """Change token of the on-disk manifest: ``(st_mtime_ns, st_size)``."""
        try:
            st = os.stat(self._manifest_path)
        except FileNotFoundError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def _commit_locked(self, mutate):
        """Run one manifest transaction; returns ``mutate``'s result.

        Caller holds the thread lock.  Acquires the cross-process
        lockfile, re-reads the on-disk manifest (authoritative while the
        lock is held — foreign commits are unioned in, foreign prunes
        stay pruned), lets ``mutate`` edit the mapping in place,
        atomically writes the result and installs it as this handle's
        in-memory view.
        """
        with self._flock_locked():
            chunks = self._load_chunks_locked()
            result = mutate(chunks)
            self._dump_manifest_locked(chunks)
            self._chunks = chunks
            self._manifest_token = self._stat_token_locked()
        return result

    def _refresh_locked(self, *, count: bool = True) -> int:
        """Reload the manifest if its stat token moved; returns new addresses.

        The token is stat'ed *before* the read, so a replace that lands
        between the two at worst marks the view one commit old — the
        next refresh reloads.  Foreign prunes are honoured: the on-disk
        mapping replaces (not merges into) the in-memory view.
        """
        token = self._stat_token_locked()
        if count and token == self._manifest_token:
            return 0
        chunks = self._load_chunks_locked()
        added = sum(1 for address in chunks if address not in self._chunks)
        self._chunks = chunks
        self._manifest_token = token
        if count:
            counter_add("chunkstore.refreshes")
        return added

    def refresh(self) -> int:
        """Pick up chunks other processes committed since our last load.

        Cheap no-op (one ``stat``) when nothing changed.  Returns the
        number of addresses that became visible.  ``get`` and ``in``
        already call this on a miss; explicit refresh is for bulk
        readers that iterate :meth:`addresses`.
        """
        with self._lock:
            return self._refresh_locked()

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    def _write_shard(
        self, address: str, array: np.ndarray, *, validated: bool = False
    ) -> dict:
        """Encode and write one shard file; returns its manifest entry.

        Encoding (including the non-finite rejection, unless the caller
        pre-``validated`` the array) runs before any file is created, so
        a rejected chunk leaves nothing on disk.
        """
        array = np.asarray(array, dtype=np.float64)
        payload, scale, offset, err = _encode(
            array, self.encoding, validated=validated
        )
        path = self._shard_path(address)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".shard-")
        try:
            with os.fdopen(fd, "wb") as handle:
                if scale is None:
                    np.savez(handle, data=payload)
                else:
                    np.savez(handle, data=payload, scale=scale, offset=offset)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        entry = {
            "file": os.path.relpath(path, self.root),
            "shape": [int(s) for s in array.shape],
            "encoding": self.encoding,
            "encoded_bytes": int(payload.nbytes),
            "decoded_bytes": int(array.nbytes),
            "max_abs_error": float(err),
            "stored_at": _now(),
        }
        if scale is not None:
            entry["scale"] = float(scale)
            entry["offset"] = float(offset)
        return entry

    def _commit_entries_locked(self, staged: "dict[str, tuple]") -> int:
        """Transactionally add staged ``{address: (entry, float64 array)}``.

        First-writer-wins against foreign commits.  Each surviving entry
        re-checks its shard file inside the transaction and rewrites it
        if a concurrent ``prune``/``sweep_orphans`` unlinked it between
        our (lock-free) shard write and this commit — shards are only
        ever removed under the lock, so the re-check closes that race.
        Returns the number of entries this handle added.
        """

        def mutate(chunks: "dict[str, dict]") -> int:
            written = 0
            for address, (entry, array) in staged.items():
                if address in chunks:
                    continue  # a foreign writer of the same content won
                if not os.path.exists(self._shard_path(address)):
                    entry = self._write_shard(address, array, validated=True)
                chunks[address] = entry
                written += 1
            return written

        return self._commit_locked(mutate)

    def put(self, address: str, array: np.ndarray) -> dict:
        """Persist one chunk; returns its manifest entry.

        Idempotent: an address already in the store is left untouched
        (content addresses make re-encoding pointless), so concurrent
        writers of the same chunk cannot corrupt each other.  For many
        chunks at once prefer :meth:`put_many`, which commits the
        manifest a single time.
        """
        address = str(address)
        with self._lock:
            entry = self._chunks.get(address)
            if entry is not None:
                return dict(entry)
        array = np.asarray(array, dtype=np.float64)
        with span("chunkstore.put", bytes=array.nbytes, encoding=self.encoding):
            entry = self._write_shard(address, array)
        counter_add("chunkstore.writes")
        counter_add("chunkstore.written_bytes", array.nbytes)
        with self._lock:
            self._commit_entries_locked({address: (entry, array)})
            return dict(self._chunks[address])

    def put_many(self, chunks: "dict[str, np.ndarray]") -> int:
        """Persist a batch of chunks with one manifest transaction.

        The manifest is O(stored chunks) to serialise, so per-chunk
        commits would cost O(N^2) over a store's lifetime; the serving
        write-through path and the campaign store writer land every
        batch through this form instead.  Returns the number of chunks
        actually written (addresses already present are skipped).
        """
        with self._lock:
            pending = {
                str(address): array
                for address, array in chunks.items()
                if str(address) not in self._chunks
            }
        if not pending:
            return 0
        # Validate the whole batch before writing anything: a non-finite
        # chunk under a lossy encoding must not leave earlier chunks of
        # the same batch behind as orphan shards.  The float64 view is
        # kept and the shard writes are marked pre-validated, so no
        # chunk is converted or scanned a second time.
        pending = {
            address: np.asarray(array, dtype=np.float64)
            for address, array in pending.items()
        }
        for array in pending.values():
            _require_finite(array, self.encoding)
        batch_bytes = sum(array.nbytes for array in pending.values())
        with span(
            "chunkstore.put_many",
            n_chunks=len(pending),
            bytes=batch_bytes,
            encoding=self.encoding,
        ):
            staged = {
                address: (
                    self._write_shard(address, array, validated=True),
                    array,
                )
                for address, array in pending.items()
            }
        counter_add("chunkstore.writes", len(pending))
        counter_add("chunkstore.written_bytes", batch_bytes)
        with self._lock:
            return self._commit_entries_locked(staged)

    def get(self, address: str) -> "np.ndarray | None":
        """The decoded ``float64`` chunk, or ``None`` if absent.

        The decoded payload is validated against the manifest entry
        (shape) before it is returned; a missing, truncated or
        wrong-shape shard raises ``ValueError`` naming the shard instead
        of handing corrupt bytes to the caller.
        """
        address = str(address)
        with self._lock:
            entry = self._chunks.get(address)
            if entry is None:
                self._refresh_locked()
                entry = self._chunks.get(address)
            if entry is None:
                return None
            entry = dict(entry)
        path = os.path.join(self.root, entry["file"])
        with span("chunkstore.get", encoding=self.encoding) as sp:
            try:
                # Own the file handle: np.load(path) leaks its descriptor
                # when the zip directory is corrupt (it raises before the
                # NpzFile that would close it exists).
                with open(path, "rb") as handle, np.load(handle) as payload:
                    decoded = _decode(
                        payload["data"],
                        payload["scale"] if "scale" in payload else None,
                        payload["offset"] if "offset" in payload else None,
                    )
            except FileNotFoundError as exc:
                raise ValueError(
                    f"manifest entry for chunk {address!r} points at missing "
                    f"shard {entry['file']!r} under {self.root}; the store "
                    f"was corrupted outside the commit protocol (shards are "
                    f"only unlinked after their entries are removed)"
                ) from exc
            except (zipfile.BadZipFile, OSError, KeyError) as exc:
                raise ValueError(
                    f"shard {entry['file']!r} for chunk {address!r} under "
                    f"{self.root} is unreadable ({exc}); the file is "
                    f"truncated or corrupt — remove the entry and re-put "
                    f"the chunk"
                ) from exc
            sp.set(bytes=decoded.nbytes)
        expected = tuple(int(s) for s in entry["shape"])
        if decoded.shape != expected:
            raise ValueError(
                f"shard {entry['file']!r} for chunk {address!r} decodes to "
                f"shape {tuple(decoded.shape)} but its manifest entry "
                f"records {expected}; the shard and manifest disagree — "
                f"remove the entry and re-put the chunk"
            )
        counter_add("chunkstore.reads")
        counter_add("chunkstore.read_bytes", decoded.nbytes)
        return decoded

    def entry(self, address: str) -> "dict | None":
        """The manifest entry of a chunk (shape, bytes, error), or ``None``."""
        with self._lock:
            entry = self._chunks.get(str(address))
            return dict(entry) if entry is not None else None

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #
    def prune(
        self,
        *,
        max_bytes: "int | None" = None,
        max_age: "float | None" = None,
        now: "float | None" = None,
    ) -> dict:
        """Drop stored chunks by age and/or an encoded-byte budget.

        ``max_age`` removes every chunk whose ``stored_at`` timestamp is
        more than that many seconds before ``now`` (entries written by
        pre-GC stores carry no timestamp and count as infinitely old).
        ``max_bytes`` then evicts oldest-first — deterministically, ties
        broken by address — until the surviving encoded bytes fit the
        budget.  ``now`` defaults to the wall clock; tests pass it
        explicitly.

        One transaction: the shrunk manifest is committed durably
        *before* any shard file is unlinked, and the unlinks happen
        while the cross-process lock is still held — a crash mid-prune
        strands orphan shards (reclaimed by :meth:`sweep_orphans`),
        never a manifest entry pointing at a missing shard.

        Returns ``{"pruned_chunks", "pruned_bytes", "remaining_chunks",
        "remaining_bytes"}``.
        """
        if max_bytes is None and max_age is None:
            raise ValueError("prune() needs max_bytes=, max_age=, or both")
        if now is None:
            now = _now()
        with self._lock, self._flock_locked():
            chunks = self._load_chunks_locked()
            doomed: dict[str, dict] = {}
            if max_age is not None:
                cutoff = float(now) - float(max_age)
                for address, entry in chunks.items():
                    if float(entry.get("stored_at", float("-inf"))) < cutoff:
                        doomed[address] = entry
            if max_bytes is not None:
                survivors = [
                    (float(entry.get("stored_at", float("-inf"))), address)
                    for address, entry in chunks.items()
                    if address not in doomed
                ]
                total = sum(
                    int(chunks[address]["encoded_bytes"])
                    for _, address in survivors
                )
                for _, address in sorted(survivors):
                    if total <= int(max_bytes):
                        break
                    doomed[address] = chunks[address]
                    total -= int(chunks[address]["encoded_bytes"])
            kept = {
                address: entry
                for address, entry in chunks.items()
                if address not in doomed
            }
            self._dump_manifest_locked(kept)
            self._chunks = kept
            self._manifest_token = self._stat_token_locked()
            # Entries are durably gone; now the shards. Still under the
            # lock, so no writer can commit against a path mid-unlink.
            for entry in doomed.values():
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(os.path.join(self.root, entry["file"]))
            remaining_bytes = sum(
                int(entry["encoded_bytes"]) for entry in kept.values()
            )
        pruned_bytes = sum(
            int(entry["encoded_bytes"]) for entry in doomed.values()
        )
        counter_add("chunkstore.pruned_chunks", len(doomed))
        counter_add("chunkstore.pruned_bytes", pruned_bytes)
        return {
            "pruned_chunks": len(doomed),
            "pruned_bytes": pruned_bytes,
            "remaining_chunks": len(kept),
            "remaining_bytes": remaining_bytes,
        }

    def sweep_orphans(self, *, grace_seconds: float = 3600.0) -> int:
        """Reclaim unreferenced shards and stale temp files; returns count.

        Orphans are the deliberate crash residue of the commit protocol:
        a shard written whose commit never happened, a shard stranded by
        a crash mid-``prune``, or a ``.manifest-*``/``.shard-*`` temp
        file from a torn write.  Only files older than ``grace_seconds``
        (mtime) are touched — the grace window must exceed the longest
        gap between a writer's shard write and its manifest commit,
        which is why the default is generous.  Runs as one transaction
        under the cross-process lock, against the authoritative on-disk
        manifest.
        """
        removed = 0
        cutoff = _now() - float(grace_seconds)
        with self._lock, self._flock_locked():
            chunks = self._load_chunks_locked()
            self._chunks = chunks
            self._manifest_token = self._stat_token_locked()
            referenced = {
                os.path.normpath(os.path.join(self.root, entry["file"]))
                for entry in chunks.values()
            }
            keep = {
                os.path.normpath(self._manifest_path),
                os.path.normpath(self._lock_path),
            }
            for dirpath, _, filenames in os.walk(self.root):
                for filename in filenames:
                    path = os.path.normpath(os.path.join(dirpath, filename))
                    if path in referenced or path in keep:
                        continue
                    is_shard = filename.endswith(".npz")
                    is_tmp = filename.startswith((".shard-", ".manifest-"))
                    if not (is_shard or is_tmp):
                        continue
                    try:
                        if os.stat(path).st_mtime >= cutoff:
                            continue
                        os.unlink(path)
                    except FileNotFoundError:
                        continue
                    removed += 1
        counter_add("chunkstore.orphans_swept", removed)
        return removed

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _max_abs_error_locked(self) -> float:
        """Deterministic maximum over per-chunk errors, NaN included.

        ``max()`` over floats is order-dependent in the presence of NaN
        (``max(1.0, nan) == 1.0`` but ``max(nan, 1.0)`` is NaN), and a
        manifest written before non-finite chunks were rejected can
        carry ``max_abs_error: nan`` entries.  Any NaN entry makes the
        store-wide error unknown, so NaN is returned — deterministically,
        whatever the manifest iteration order.
        """
        errors = [float(e["max_abs_error"]) for e in self._chunks.values()]
        if not errors:
            return 0.0
        if any(math.isnan(err) for err in errors):
            return float("nan")
        return max(errors)

    def max_abs_error(self) -> float:
        """Largest measured reconstruction error across stored chunks.

        Exactly ``0.0`` for a lossless (float64) store; the quantized
        tier's honest error bound otherwise.  NaN — deterministically,
        regardless of manifest order — when a pre-existing manifest
        carries a corrupt ``max_abs_error: nan`` entry (written before
        non-finite chunks were rejected): the store-wide bound is then
        unknown, and pretending otherwise would hide the corruption.
        """
        with self._lock:
            return self._max_abs_error_locked()

    def stats(self) -> dict:
        """Store observability: chunk count, byte totals, encoding, error.

        ``max_abs_error`` follows :meth:`max_abs_error`'s NaN contract:
        a corrupt pre-existing manifest entry yields NaN, never an
        order-dependent value.
        """
        with self._lock:
            encoded = sum(int(e["encoded_bytes"]) for e in self._chunks.values())
            decoded = sum(int(e["decoded_bytes"]) for e in self._chunks.values())
            err = self._max_abs_error_locked()
            return {
                "root": self.root,
                "encoding": self.encoding,
                "lossless": self.lossless,
                "n_chunks": len(self._chunks),
                "encoded_bytes": encoded,
                "decoded_bytes": decoded,
                "compression_factor": decoded / encoded if encoded else float("inf"),
                "max_abs_error": err,
            }
