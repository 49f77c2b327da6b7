"""Persistent, journal-indexed store of content-addressed field chunks.

The system's single persistence layer.  The serving tier reads and
write-throughs it, and campaigns (``run_campaign(store=...)``) write
straight into it, so a chunk written once is served forever without
re-synthesis — across processes and restarts.  Every ``get`` decodes
back to ``float64``, from one of two encodings:

* ``"float64"`` (default) — bit-lossless: ``get`` returns exactly the
  array that was ``put``.
* ``"int16"`` — opt-in quantized tier: a per-chunk ``scale``/``offset``
  (midrange/halfrange affine map), a quarter of the bytes, the measured
  maximum absolute error recorded per chunk.

``int16`` rejects NaN/Inf with ``ValueError`` before any shard is
written.  A store has one encoding for life, and refuses to open if its
header names another encoding (or one this code does not write), if it
holds chunks of another :data:`~repro.util.numerics.NUMERICS_REVISION`
(not the bits this code synthesises for the same addresses) or if it is
a schema-1 root (NPZ shards indexed by one rewritten manifest).

On disk (schema 2): ``chunks/<ab>/<address>.bin`` holds a shard's raw
C-order payload bytes, and its entry records ``shape``, ``dtype`` and
``crc32``, so ``get`` is one ``np.empty`` and one unbuffered
``readinto`` (a short file, a byte past the end or a CRC mismatch
raises).  ``manifest.json`` is the header: ``schema``, ``encoding``,
``numerics_revision``, the name of the live ``journal`` and a compacted
``chunks`` snapshot.  ``journal-*.jsonl`` holds one ``{"put": {address:
entry, ...}}`` line per committed transaction.

Concurrency — the commit protocol
---------------------------------
One ``threading.Lock`` guards the in-memory view.  Across processes
every mutation is a *transaction* under a ``manifest.lock`` file
acquired with ``O_CREAT | O_EXCL`` (bounded wait, stale-lock breaking):
it catches up (the header again if a compaction replaced it, else only
the journal bytes past the handle's offset), so foreign commits are
never lost and foreign prunes never resurrected; applies the mutation
(content-addressed entries: first writer wins); and publishes it with
one fsync'd append of a complete journal line — or a *compaction*: a
new empty journal, then a header naming it and holding every live
entry, ``os.replace``d over the old one, so readers see either the old
pair or the new.  Compaction happens on :meth:`ChunkStore.prune`, on
:meth:`ChunkStore.sweep_orphans`, and when a commit would leave more
entries in the journal than in the snapshot: each rewrites at most
twice the entries appended since the last, so a commit's cost does not
grow with the store.

Readers ignore a torn last line; the next writer truncates it.  Shards
are staged lock-free as ``.shard-*`` temp files and renamed into place
inside the transaction, after its shape check and *before* their record,
so a refused commit overwrites no committed shard; ``prune`` compacts
before it unlinks, so a crash leaves only orphans (shards, retired or
unpublished journals, temp files) for :meth:`ChunkStore.sweep_orphans`,
never an entry pointing at a missing shard.  :meth:`ChunkStore.refresh`
(and ``get``/``in`` on a miss) picks up foreign commits live.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
import threading
import time
import zlib

import numpy as np

from repro.obs import span
from repro.util.numerics import NUMERICS_REVISION

__all__ = ["ChunkStore"]

#: Supported chunk encodings, lossless first.
_CHUNK_ENCODINGS = ("float64", "int16")

_MANIFEST_SCHEMA = 2

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

    An ``int16`` encode of NaN/Inf would quantise against a non-finite
    midrange (an all-zero payload behind ``offset = nan``): corruption
    dressed as a stored chunk.  ``float64`` round-trips any bit pattern
    and stays permissive.
    """
    if encoding != "float64" and not np.isfinite(array).all():
        raise ValueError(
            f"chunk contains non-finite values (NaN/Inf), which the lossy "
            f"{encoding!r} encoding cannot represent faithfully; store "
            f"non-finite chunks with the lossless 'float64' encoding"
        )


def _encode(array: np.ndarray, encoding: str):
    """Encode a float64 array; returns ``(payload, scale, offset, max_abs_error)``.

    Raises ``ValueError`` for non-finite input under a lossy encoding,
    before any shard file is created.
    """
    array = np.asarray(array, dtype=np.float64)
    _require_finite(array, encoding)
    if encoding == "float64":
        return array, None, None, 0.0
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
    """Decode a stored payload to float64; a float64 payload is returned as is."""
    if payload.dtype == np.int16:
        return payload.astype(np.float64) * float(scale) + float(offset)
    return payload.astype(np.float64, copy=False)


class ChunkStore:
    """Read-through / write-through persistent tier for served chunks.

    Parameters
    ----------
    root:
        Directory of the store (created if missing).  Holds the
        ``manifest.json`` header, its journal and shard files under
        ``chunks/``.
    encoding:
        ``"float64"`` or ``"int16"``.  ``"float64"`` is lossless;
        ``"int16"`` is the opt-in quantized tier (4x smaller, measured
        ``max_abs_error`` recorded per chunk).  Reopening an existing
        store with a different encoding raises ``ValueError``.
    lock_timeout:
        Seconds a transaction waits for ``manifest.lock`` before
        raising ``TimeoutError``.
    stale_lock_seconds:
        Age after which a ``manifest.lock`` left behind by a killed
        process is broken.  Must exceed the longest plausible
        transaction (a compaction).

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
        # The ``chunks/<ab>`` directories this handle made or found; nothing
        # removes one, so each is created once per handle.
        self._shard_dirs: set[str] = set()
        self._shard_dirs_lock = threading.Lock()
        # The view: the live entries, and how far it has read which
        # header and journal.
        self._chunks: dict[str, dict] = {}
        self._manifest_token: "tuple | None" = None
        self._revision = NUMERICS_REVISION
        self._journal = ""
        self._journal_offset = 0
        self._journal_entries = 0
        with self._lock:
            if not os.path.exists(self._manifest_path):
                # Two processes racing to initialise one root serialise
                # on the lock; the loser finds the winner's header.
                with self._flock_locked():
                    if not os.path.exists(self._manifest_path):
                        self._dump_manifest_locked({})
            self._refresh_locked()

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
            # last catch-up; the new journal bytes settle it.
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
        return os.path.join(self.root, "chunks", address[:2], f"{address}.bin")

    @contextlib.contextmanager
    def _flock_locked(self):
        """Hold ``manifest.lock`` (O_CREAT|O_EXCL) for one transaction.

        One ``chunkstore.commit`` span covers the wait and the
        transaction; it records the live entries (``n_entries``) and the
        journal length (``journal_bytes``) left behind.  Raises
        ``TimeoutError`` after ``lock_timeout``; a lock older than
        ``stale_lock_seconds`` is broken, and the span counts the breaks
        (``stale_locks_broken``).  Caller holds the thread lock.
        """
        with span("chunkstore.commit") as sp:
            deadline = _deadline_clock() + self.lock_timeout
            while True:
                try:
                    fd = os.open(self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                    break
                except FileExistsError:
                    if self._break_stale_lock_locked(sp):
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
                sp.set(n_entries=len(self._chunks), journal_bytes=self._journal_offset)

    def _break_stale_lock_locked(self, commit_span) -> bool:
        """Remove ``manifest.lock`` if its holder looks dead; True if removed.

        Staleness is mtime age.  The unlink races other breakers
        benignly (``FileNotFoundError``: someone else broke it).  A break
        is counted on ``commit_span`` as ``stale_locks_broken``.
        """
        try:
            age = _now() - os.stat(self._lock_path).st_mtime
        except FileNotFoundError:
            return True  # released between our open attempt and the stat
        if age <= self.stale_lock_seconds:
            return False
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self._lock_path)
        broken = commit_span.attrs.get("stale_locks_broken", 0) + 1
        commit_span.set(stale_locks_broken=broken)
        return True

    def _header_token(self, fd: "int | None" = None) -> "tuple | None":
        """Change token of the header (or of its open ``fd``): compaction replaces it."""
        try:
            st = os.stat(self._manifest_path) if fd is None else os.fstat(fd)
        except FileNotFoundError:
            return None
        return (st.st_ino, st.st_mtime_ns, st.st_size)

    def _read_header_locked(self) -> None:
        """Reset the view to the header's snapshot.

        A header that fails to parse raises: treating it as empty would
        let the next compaction drop every entry it held.
        """
        try:
            with open(self._manifest_path, "rb") as handle:
                token = self._header_token(handle.fileno())
                raw = handle.read()
        except FileNotFoundError as exc:
            raise ValueError(f"chunk-store header {self._manifest_path} is missing") from exc
        try:
            header = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"corrupt chunk-store manifest at {self._manifest_path}: {exc}; "
                f"refusing to merge over it — restore the manifest from the "
                f"shard files (entries are content-addressed) or move it aside"
            ) from exc
        if header.get("schema") != _MANIFEST_SCHEMA:
            raise ValueError(
                f"store at {self.root} is chunk-store schema "
                f"{header.get('schema')!r}, but this code reads schema "
                f"{_MANIFEST_SCHEMA} only (raw shards, a header and a journal; "
                f"schema 1 was NPZ shards and one manifest): write to a fresh "
                f"root, or read this one with the code that wrote it"
            )
        if header.get("encoding") not in _CHUNK_ENCODINGS:
            raise ValueError(
                f"store at {self.root} holds chunks of encoding "
                f"{header.get('encoding')!r}, which this code does not "
                f"support (it reads and writes {_CHUNK_ENCODINGS}): read "
                f"this root with the code that wrote it"
            )
        if header.get("encoding") != self.encoding:
            if header.get("encoding") == "int16":
                raise _lossy_refusal(self.root, "int16")
            raise ValueError(
                f"store at {self.root} holds {header.get('encoding')!r} chunks; a "
                f"store keeps one encoding for life, so it takes no {self.encoding!r} ones"
            )
        self._chunks = dict(header["chunks"])
        self._manifest_token = token
        # Absent = written before the stamp existed.
        self._revision = header.get("numerics_revision", 0)
        self._journal = os.path.join(self.root, header["journal"])
        self._journal_offset = 0
        self._journal_entries = 0

    def _refresh_locked(self, *, writer: bool = False) -> int:
        """Catch the view up with the disk; returns the newly visible addresses.

        One ``stat`` of the header: if a compaction (or a foreign prune)
        replaced it, the header and its whole journal are read; else
        only the journal bytes past this handle's offset.  A torn last
        line is left unread; a ``writer`` (holding ``manifest.lock``, so
        no append is in flight) truncates it.
        """
        known = self._chunks
        while True:
            if self._header_token() != self._manifest_token:
                self._read_header_locked()
            try:
                with open(self._journal, "rb") as handle:
                    handle.seek(self._journal_offset)
                    tail = handle.read()
                break
            except FileNotFoundError as exc:
                # A compaction retired (and a sweep removed) the journal
                # after our stat: the new header names the live one.
                if self._header_token() == self._manifest_token:
                    raise ValueError(
                        f"chunk-store journal {self._journal} named by "
                        f"{self._manifest_path} is missing"
                    ) from exc
        end = tail.rfind(b"\n") + 1
        added = 0
        for line in tail[:end].splitlines():
            try:
                record = json.loads(line)["put"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"corrupt chunk-store journal {self._journal} at byte "
                    f"{self._journal_offset}: {exc}; refusing to merge over it"
                ) from exc
            for address, entry in record.items():
                if address not in self._chunks:
                    self._chunks[address] = entry
                    added += 1
            self._journal_entries += len(record)
            self._journal_offset += len(line) + 1
        if writer and end < len(tail):
            os.truncate(self._journal, self._journal_offset)
        if self._chunks and self._revision != NUMERICS_REVISION:
            raise ValueError(
                f"store at {self.root} holds chunks computed under numerics "
                f"revision {self._revision!r}, but this code is numerics revision "
                f"{NUMERICS_REVISION}: the stored fields are not the bits this "
                f"code synthesises for the same requests — write to a fresh "
                f"root, or read this one with the code that wrote it"
            )
        if self._chunks is not known:
            added = sum(1 for address in self._chunks if address not in known)
        return added

    def _dump_manifest_locked(self, chunks: "dict[str, dict]") -> None:
        """Compact: a new empty journal, then the header naming it.

        Journals are numbered; the new one follows the live one, so a
        file of its number can only be a crashed compaction's orphan and
        is truncated.  The header is fsync'd in a temp file and
        ``os.replace``d over ``manifest.json``.  A crash before the
        replace leaves the new journal (and a ``.manifest-*`` temp) as
        orphans; after it, the retired journal is one.
        """
        live = os.path.basename(self._journal).removeprefix("journal-")
        name = f"journal-{int(live.removesuffix('.jsonl') or 0) + 1:06d}.jsonl"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        os.close(os.open(os.path.join(self.root, name), flags, 0o666))
        header = {
            "schema": _MANIFEST_SCHEMA,
            "encoding": self.encoding,
            "numerics_revision": NUMERICS_REVISION,
            "journal": name,
            "chunks": chunks,
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".manifest-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # dumps, not dump: the C encoder, the same bytes.
                handle.write(json.dumps(header, sort_keys=True))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._manifest_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._chunks = chunks
        self._manifest_token = self._header_token()
        self._revision = NUMERICS_REVISION
        self._journal = os.path.join(self.root, name)
        self._journal_offset = 0
        self._journal_entries = 0

    def _append_journal_locked(self, record: "dict[str, dict]") -> None:
        """Commit ``record`` with one fsync'd append of one complete line."""
        line = (json.dumps({"put": record}, sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(self._journal, os.O_WRONLY | os.O_APPEND)
        with os.fdopen(fd, "ab") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        self._chunks.update(record)
        self._journal_offset += len(line)
        self._journal_entries += len(record)

    def refresh(self) -> int:
        """Pick up chunks other processes committed since our last load.

        Cheap when nothing changed: one ``stat`` and an empty journal
        read.  Returns the number of addresses that became visible.
        ``get`` and ``in`` already call this on a miss.
        """
        with self._lock:
            return self._refresh_locked()

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    def _stage_shard(self, address: str, array: np.ndarray) -> "tuple[dict, str]":
        """Encode one ``float64`` chunk into a ``.shard-*`` temp file beside
        its shard path; returns its entry and the temp path, which the
        commit renames.  A rejected chunk creates no file.
        """
        payload, scale, offset, err = _encode(array, self.encoding)
        payload = np.ascontiguousarray(payload)
        path = self._shard_path(address)
        directory = os.path.dirname(path)
        with self._shard_dirs_lock:  # not ``_lock``: a commit re-stages under it
            if directory not in self._shard_dirs:
                os.makedirs(directory, exist_ok=True)
                self._shard_dirs.add(directory)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".shard-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
        except BaseException:
            os.unlink(tmp)
            raise
        entry = {
            "file": os.path.relpath(path, self.root),
            "shape": [int(s) for s in array.shape],
            "dtype": payload.dtype.str,
            "crc32": zlib.crc32(payload),
            "encoding": self.encoding,
            "encoded_bytes": int(payload.nbytes),
            "decoded_bytes": int(array.nbytes),
            "max_abs_error": float(err),
            "stored_at": _now(),
        }
        if scale is not None:
            entry["scale"] = float(scale)
            entry["offset"] = float(offset)
        return entry, tmp

    def _stage_and_commit(self, pending: "dict[str, np.ndarray]", stage_span) -> int:
        """Stage every pending ``float64`` chunk under ``stage_span``, then
        commit them in one transaction; temp files the commit did not rename
        are removed, so a batch refused at any chunk leaves nothing behind."""
        staged: dict[str, tuple] = {}
        try:
            with stage_span:
                for address, array in pending.items():
                    staged[address] = (*self._stage_shard(address, array), array)
            with self._lock:
                return self._commit_entries_locked(staged)
        finally:
            for _, tmp, _ in staged.values():
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)

    def _commit_entries_locked(self, staged: "dict[str, tuple]") -> int:
        """Transactionally add staged ``{address: (entry, temp path, array)}``.

        First-writer-wins against foreign commits, after every address a
        foreign writer committed meanwhile has passed the shape check, so
        a refused batch renames no shard over a committed one.  Each
        surviving entry's temp file is renamed to its shard path (staged
        again first if a concurrent ``sweep_orphans`` reclaimed it).  The
        record is one journal line, unless the journal would then hold
        more entries than the snapshot: then the commit compacts.
        Returns the number of entries this handle added.
        """
        with self._flock_locked():
            self._refresh_locked(writer=True)
            record: dict[str, dict] = {}
            for address, (_, _, array) in staged.items():
                if address in self._chunks:
                    self._check_stored_shape_locked(address, array)
            for address, (entry, tmp, array) in staged.items():
                if address in self._chunks:
                    continue  # a foreign writer of the same chunk won
                if not os.path.exists(tmp):
                    entry, tmp = self._stage_shard(address, array)
                os.replace(tmp, self._shard_path(address))
                record[address] = entry
            snapshot = len(self._chunks) - self._journal_entries
            if self._journal_entries + len(record) > snapshot:
                self._dump_manifest_locked({**self._chunks, **record})
            elif record:
                self._append_journal_locked(record)
        return len(record)

    def _check_stored_shape_locked(self, address: str, array: np.ndarray) -> None:
        """A stored ``address`` is skipped only for an array of its shape; one
        of another shape (another grid's chunk) raises, naming both shapes."""
        stored = tuple(self._chunks[address]["shape"])
        if stored != array.shape:
            raise ValueError(
                f"chunk {address} in the store at {self.root} has shape {stored}, "
                f"not the {array.shape} being put: the root holds chunks of "
                f"another grid or length (another artifact wrote it)"
            )

    def put(self, address: str, array: np.ndarray) -> dict:
        """Persist one chunk; returns its entry.

        Idempotent: an address already in the store is left untouched,
        so concurrent writers of the same chunk cannot corrupt each
        other; an array of another shape than the stored one raises
        ``ValueError``.  For many chunks prefer :meth:`put_many`.
        """
        address = str(address)
        array = np.asarray(array, dtype=np.float64)
        with self._lock:
            if address in self._chunks:
                self._refresh_locked()  # a foreign prune may have dropped it
            entry = self._chunks.get(address)
            if entry is not None:
                self._check_stored_shape_locked(address, array)
                return dict(entry)
        self._stage_and_commit(
            {address: array},
            span("chunkstore.put", bytes=array.nbytes, encoding=self.encoding),
        )
        with self._lock:
            return dict(self._chunks[address])

    def put_many(self, chunks: "dict[str, np.ndarray]") -> int:
        """Persist a batch of chunks with one transaction (one journal line).

        The serving write-through and the campaign store writer land
        every batch through this form.  Returns the number of chunks
        actually written (addresses already present are skipped; one
        stored with another shape raises ``ValueError`` before any shard
        is written).
        """
        chunks = {
            str(address): np.asarray(array, dtype=np.float64)
            for address, array in chunks.items()
        }
        with self._lock:
            if any(address in self._chunks for address in chunks):
                self._refresh_locked()  # a foreign prune may have dropped some
            pending = {}
            for address, array in chunks.items():
                if address in self._chunks:
                    self._check_stored_shape_locked(address, array)
                else:
                    pending[address] = array
        if not pending:
            return 0
        batch_bytes = sum(array.nbytes for array in pending.values())
        return self._stage_and_commit(pending, span(
            "chunkstore.put_many", n_chunks=len(pending),
            bytes=batch_bytes, encoding=self.encoding,
        ))

    def get(self, address: str) -> "np.ndarray | None":
        """The decoded ``float64`` chunk, or ``None`` if absent.

        The shard is read with one ``readinto`` into an array of the
        entry's shape and dtype (a ``float64`` store returns that
        buffer).  A missing shard, a short or overlong file or a CRC-32
        mismatch raises ``ValueError`` naming the shard.
        """
        address = str(address)
        with self._lock:
            entry = self._chunks.get(address)
            if entry is None:
                self._refresh_locked()
                entry = self._chunks.get(address)
            if entry is None:
                return None
        path = os.path.join(self.root, entry["file"])
        with span("chunkstore.get", encoding=self.encoding) as sp:
            payload = np.empty(entry["shape"], entry["dtype"])
            flat = payload.reshape(-1).view(np.uint8)
            filled = 0
            try:
                with open(path, "rb", buffering=0) as handle:
                    while count := handle.readinto(flat[filled:]):  # reads stop at 2 GiB
                        filled += count
                    overrun = handle.read(1)
            except FileNotFoundError as exc:
                with self._lock:
                    self._refresh_locked()
                    if address not in self._chunks:
                        return None  # a foreign prune removed it meanwhile
                raise ValueError(
                    f"entry for chunk {address!r} points at missing "
                    f"shard {entry['file']!r} under {self.root}; the store "
                    f"was corrupted outside the commit protocol (shards are "
                    f"only unlinked after their entries are removed)"
                ) from exc
            except OSError as exc:
                raise ValueError(
                    f"shard {entry['file']!r} for chunk {address!r} under "
                    f"{self.root} is unreadable ({exc}); the file is "
                    f"truncated or corrupt — remove the entry and re-put "
                    f"the chunk"
                ) from exc
            short = filled != flat.size or overrun
            if short or zlib.crc32(payload) != entry["crc32"]:
                raise ValueError(
                    f"shard {entry['file']!r} for chunk {address!r} under "
                    f"{self.root} " + (
                        f"holds {filled}{'+' if overrun else ''} bytes, not "
                        f"{flat.size}" if short else "fails its CRC-32"
                    ) + "; the file is truncated or corrupt — remove the "
                    "entry and re-put the chunk"
                )
            decoded = _decode(payload, entry.get("scale"), entry.get("offset"))
            sp.set(bytes=decoded.nbytes)
        return decoded

    def entry(self, address: str) -> "dict | None":
        """The entry of a chunk (shape, bytes, error), or ``None``."""
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
        more than that many seconds before ``now`` (default: the wall
        clock).  ``max_bytes`` then evicts oldest-first, ties broken by
        address, until the surviving encoded bytes fit the budget.

        One transaction: the shrunk view is compacted durably *before*
        any shard is unlinked, under the lock, so a crash mid-prune
        strands orphan shards, never an entry pointing at a missing one.

        Returns ``{"pruned_chunks", "pruned_bytes", "remaining_chunks",
        "remaining_bytes"}``.
        """
        if max_bytes is None and max_age is None:
            raise ValueError("prune() needs max_bytes=, max_age=, or both")
        if now is None:
            now = _now()
        with self._lock, self._flock_locked():
            self._refresh_locked(writer=True)
            chunks = self._chunks
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
                total = sum(int(chunks[a]["encoded_bytes"]) for _, a in survivors)
                for _, address in sorted(survivors):
                    if total <= int(max_bytes):
                        break
                    doomed[address] = chunks[address]
                    total -= int(chunks[address]["encoded_bytes"])
            kept = {a: e for a, e in chunks.items() if a not in doomed}
            self._dump_manifest_locked(kept)
            # Entries are durably gone; now the shards. Still under the
            # lock, so no writer can commit against a path mid-unlink.
            for entry in doomed.values():
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(os.path.join(self.root, entry["file"]))
            remaining_bytes = sum(int(e["encoded_bytes"]) for e in kept.values())
        return {
            "pruned_chunks": len(doomed),
            "pruned_bytes": sum(int(e["encoded_bytes"]) for e in doomed.values()),
            "remaining_chunks": len(kept),
            "remaining_bytes": remaining_bytes,
        }

    def sweep_orphans(self, *, grace_seconds: float = 3600.0) -> int:
        """Reclaim unreferenced shards, retired journals and stale temps.

        Orphans are the commit protocol's crash residue: a shard whose
        commit never happened or whose prune died mid-unlink, a journal
        a compaction retired (or created and died before publishing),
        or a ``.manifest-*``/``.shard-*`` temp file.  Only files older
        than ``grace_seconds`` (mtime) are touched: the window must
        outlast a writer's gap between shard and commit, and a reader's
        between header and journal.  One transaction, which first
        compacts a non-empty journal.
        """
        removed = 0
        cutoff = _now() - float(grace_seconds)
        with self._lock, self._flock_locked():
            self._refresh_locked(writer=True)
            if self._journal_offset:
                self._dump_manifest_locked(dict(self._chunks))
            referenced = {
                os.path.normpath(os.path.join(self.root, entry["file"]))
                for entry in self._chunks.values()
            }
            keep = {
                os.path.normpath(self._manifest_path),
                os.path.normpath(self._lock_path),
                os.path.normpath(self._journal),
            }
            for dirpath, _, filenames in os.walk(self.root):
                for filename in filenames:
                    path = os.path.normpath(os.path.join(dirpath, filename))
                    if path in referenced or path in keep:
                        continue
                    is_shard = filename.endswith(".bin")
                    is_journal = filename.startswith("journal-") and (
                        os.path.dirname(path) == os.path.normpath(self.root)
                    )
                    is_tmp = filename.startswith((".shard-", ".manifest-"))
                    if not (is_shard or is_journal or is_tmp):
                        continue
                    try:
                        if os.stat(path).st_mtime >= cutoff:
                            continue
                        os.unlink(path)
                    except FileNotFoundError:
                        continue
                    removed += 1
        return removed

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _max_abs_error_locked(self) -> float:
        """Maximum over per-chunk errors; NaN if any entry's is NaN.

        ``max()`` is order-dependent under NaN (``max(1.0, nan) == 1.0``
        but ``max(nan, 1.0)`` is NaN), so NaN is checked for first.
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
        tier's honest error bound otherwise.  NaN, whatever the entry
        order, when an entry carries a corrupt ``max_abs_error: nan``:
        the store-wide bound is then unknown.
        """
        with self._lock:
            return self._max_abs_error_locked()

    def stats(self) -> dict:
        """Chunk count, byte totals, encoding and :meth:`max_abs_error`."""
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


def _open_store(store: "ChunkStore | str | os.PathLike") -> ChunkStore:
    """The one way campaigns, their reader and serving open a store: a
    handle, or a root path (opened ``float64``, created if missing).  A
    lossy store is refused by name: its chunks read back other bits than
    synthesis made, so one request would have two answers."""
    if not isinstance(store, ChunkStore):
        store = ChunkStore(os.fspath(store))
    if not store.lossless:
        raise _lossy_refusal(store.root, store.encoding)
    return store


def _lossy_refusal(root: str, encoding: str) -> ValueError:
    return ValueError(
        f"chunk store at {root} holds chunks of the lossy {encoding!r} encoding, which "
        f"campaigns, serving and the campaign reader refuse; use a 'float64' root"
    )


def _read_chunk(store: ChunkStore, address: str, shape: tuple) -> "np.ndarray | None":
    """The one validated read: the stored ``float64`` chunk or ``None``; a
    chunk of another ``(steps, ntheta, nphi)`` raises, naming both shapes."""
    array = store.get(address)
    if array is not None and array.shape != shape:
        raise ValueError(
            f"chunk {address} in the store at {store.root} has shape {array.shape}, "
            f"not the {shape} this reader needs: the root holds chunks of "
            f"another grid or length (another artifact wrote it, or it was rewritten)"
        )
    return array
