"""Versioned, NPZ-backed persistence of fitted emulators.

The paper's headline claim is that a fitted emulator's *parameters* replace
petabytes of raw ensemble output.  :class:`EmulatorArtifact` makes that
durable: it captures :meth:`ClimateEmulator.state_dict` — every fitted
pipeline stage (trend, scale, VAR, mixed-precision Cholesky factor, nugget)
plus the training summary and configuration — in a single ``.npz`` file
with a JSON metadata block and an explicit schema version.  The factor *is*
the stored model: the innovation covariance it came from is not persisted.
Members are stored, not deflated (zlib over float64 noise saved ~5 % of the
bytes for most of the save time).

Round trips are bit-exact: a loaded emulator driven by the same seeded
random generator reproduces the original's ``emulate()`` output exactly.
The serialised size is also *measurable* (:meth:`EmulatorArtifact.nbytes`),
which is what ``ClimateEmulator.storage_summary`` quotes next to the
theoretical parameter counts.

File layout
-----------
One NPZ member per array, named by its ``/``-joined path in the nested
state dict; one ``uint8`` member (:data:`META_KEY`) holding the UTF-8 JSON
metadata: schema version, library version, and the non-array part of the
state tree.  The factor is stored per row panel beside its
``tile_precision`` codes: a panel of double-precision tiles as it is held
(``spectral_model/cholesky/panel_<p>_fp64``, a matrix a load adopts), a
mixed panel as its tiles per stored precision
(``panel_<p>_<fp64|fp32|fp16>``, flat, which a load unpacks).
``allow_pickle`` is never used, so artifacts are safe to load from
untrusted sources.

Every member's array data starts 64-byte aligned in the file: the local
zip header's extra field is padded (``np.lib.format`` pads the ``.npy``
header itself), which any zip reader skips, so the file stays a plain
``.npz``.  A load maps the file once and adopts the aligned matrices as
read-only views of the mapping, each checked against its zip CRC-32
first; no schema records the alignment, so older files, whose members
are not aligned, load by reading as before.  :meth:`EmulatorArtifact.save`
writes a temporary file and renames it over the destination, so it never
rewrites the bytes a loaded emulator maps.

Schema 1 stored the dense ``spectral_model/covariance`` beside one deflated
``spectral_model/cholesky/tiles/<i>_<j>`` member per tile; schema 2 dropped
the covariance and packed the tiles into one ``tiles_<precision>`` buffer
per precision; schema 3 stored the panels, and beside them the factor's
flop, conversion and task totals; schema 4, the only one written, stores
the panels and codes alone.  :meth:`EmulatorArtifact.load` reads all four
(what a schema-3 factor carries beyond schema 4 is not read).
"""

from __future__ import annotations

import contextlib
import io
import json
import mmap
import os
import secrets
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import __version__
from repro.core.emulator import ClimateEmulator
from repro.util.registry import UnknownBackendError

__all__ = [
    "ArtifactError",
    "EmulatorArtifact",
    "META_KEY",
    "SCHEMA_VERSION",
    "SchemaVersionError",
]

#: Artifact schema version written; bumped on incompatible layout changes.
SCHEMA_VERSION = 4

#: Schema versions :meth:`EmulatorArtifact.load` reads.
_READABLE_SCHEMA_VERSIONS = (1, 2, 3, SCHEMA_VERSION)

#: The one version-1 member no reader uses (8 L^4 bytes, deflated).
_SCHEMA_1_COVARIANCE = "spectral_model/covariance"

#: NPZ member holding the JSON metadata block.
META_KEY = "__repro_artifact__"

#: Identifies the file format inside the metadata block.
FORMAT_NAME = "repro-emulator-artifact"

#: Alignment of every member's array data in a saved file, in bytes.
_ALIGN = 64

#: Bytes of the zip64 extra field a member written with ``force_zip64`` gets.
_ZIP64_SIZES = struct.calcsize("<HHQQ")

#: Zip extra-field id of the padding that aligns a member's data (the id
#: Android's ``zipalign`` gives the same padding).
_PAD_EXTRA_ID = 0xD935


class ArtifactError(ValueError):
    """The file is not a readable emulator artifact."""


class SchemaVersionError(ArtifactError):
    """The artifact was written under an incompatible schema version."""


def _jsonable(value):
    """Convert numpy scalars / containers to plain JSON-able Python values."""
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _split(node: dict, prefix: str, arrays: dict[str, np.ndarray]) -> dict:
    """The metadata tree of ``node``; its arrays go into ``arrays`` by path.

    A module-level function, not a closure: a recursive closure is a
    reference cycle, and through it every array of a saved state would wait
    for the cycle collector to be freed.
    """
    meta: dict = {}
    for key, value in node.items():
        key = str(key)
        if "/" in key:
            raise ArtifactError(f"state key {key!r} may not contain '/'")
        path = f"{prefix}{key}"
        if isinstance(value, np.ndarray):
            arrays[path] = value
        elif isinstance(value, dict):
            meta[key] = _split(value, f"{path}/", arrays)
        else:
            meta[key] = _jsonable(value)
    return meta


class _ByteCounter(io.RawIOBase):
    """A seekable sink that keeps only the size of what is written to it."""

    position = size = 0

    def write(self, data) -> int:
        self.position += memoryview(data).nbytes
        self.size = max(self.size, self.position)
        return memoryview(data).nbytes

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        self.position = offset + (0, self.position, self.size)[whence]
        return self.position


def _npy_header(member) -> tuple:
    """``(shape, fortran_order, dtype, data bytes)`` of an ``.npy`` stream,
    left at its data."""
    version = np.lib.format.read_magic(member)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
    else:
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(member)
    if dtype.hasobject:
        raise ValueError("holds Python objects")
    return shape, fortran, dtype, int(np.prod(shape)) * dtype.itemsize


def _write_member(archive: zipfile.ZipFile, fh, name: str, array: np.ndarray) -> None:
    """Store ``array`` as member ``<name>.npy`` with its data 64-byte aligned.

    The local header's extra field is padded so that the ``.npy`` header,
    which ``np.lib.format`` pads to a multiple of 64 bytes itself, ends on
    a multiple of 64 in the file.  The data is written from the array's
    own buffer.
    """
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(array))
    if not array.flags.c_contiguous:
        array = array.T if array.flags.f_contiguous else np.ascontiguousarray(array)
    info = zipfile.ZipInfo(f"{name}.npy")
    # ``fh`` sits where zipfile writes the local header: its fixed part, the
    # name, the extra field (here the padding), then the zip64 sizes that
    # ``force_zip64`` appends to it.
    local = zipfile.sizeFileHeader + len(info.filename.encode("utf-8")) + _ZIP64_SIZES
    pad = -(fh.tell() + local) % _ALIGN
    if pad:
        pad += _ALIGN if pad < 4 else 0  # an extra field is at least its 4-byte id and size
        info.extra = struct.pack("<HH", _PAD_EXTRA_ID, pad - 4) + bytes(pad - 4)
    with archive.open(info, "w", force_zip64=True) as member:
        member.write(header.getvalue())
        member.write(array.reshape(-1).view(np.uint8))


def _map(handle) -> "np.ndarray | None":
    """The whole file as a read-only ``uint8`` array over one ``mmap``, or
    ``None`` where the file system cannot map it."""
    try:
        return np.frombuffer(mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ), np.uint8)
    except (OSError, ValueError):
        return None


def _mapped_member(handle, info: zipfile.ZipInfo, mapping, adopted: bool) -> "tuple | None":
    """``(shape, fortran_order, dtype, data)`` of a stored matrix a load
    adopts (``adopted``: schemas 3 and 4) whose data starts 64-byte aligned,
    ``data`` a view of ``mapping`` checked against the member's CRC-32;
    ``None`` for a member to read instead.

    The local header is parsed from the file, not taken from the central
    directory: the two extra fields can differ.
    """
    if mapping is None or not adopted or info.compress_type != zipfile.ZIP_STORED:
        return None
    handle.seek(info.header_offset)
    fixed = handle.read(zipfile.sizeFileHeader)
    if len(fixed) < zipfile.sizeFileHeader or fixed[:4] != zipfile.stringFileHeader:
        raise ValueError("has no local header")
    name_length, extra_length = struct.unpack(zipfile.structFileHeader, fixed)[-2:]
    start = info.header_offset + zipfile.sizeFileHeader + name_length + extra_length
    handle.seek(start)
    shape, fortran, dtype, size = _npy_header(handle)
    offset, end = handle.tell(), start + info.compress_size
    if len(shape) < 2 or offset % _ALIGN:
        return None
    if offset + size > end or end > len(mapping):
        raise ValueError("is truncated")
    if zlib.crc32(mapping[start:end]) != info.CRC:
        raise ValueError("fails its CRC-32 check")
    return shape, fortran, dtype, mapping[offset:offset + size]


def _read_arrays(handle, archive: zipfile.ZipFile, mapping, keys: list, adopted: bool) -> dict:
    """The arrays of ``keys``, CRC-checked.

    With ``adopted`` (schemas 3 and 4, which store the panels), the
    matrices, which a load keeps as they are (the factor's double-precision
    panels among them), are read-only views of ``mapping``, the file's one
    ``mmap``, when their data starts 64-byte aligned (as
    :meth:`EmulatorArtifact.save` writes every member), each checked against its zip CRC-32 over the
    mapped bytes: nothing is copied, and processes that load one file share
    its pages.  Matrices written unaligned (``np.savez``: numpy's matmul
    takes no BLAS path for unaligned operands) are read, CRC-checked by
    ``zipfile``, into views of one block: with a buffer each, scattered
    through the heap, the panels cost a ``campaign_L64`` round ~25 k page
    faults where one block costs ~8 k.  Every other member is read into a
    buffer of its own, so what a load unpacks (a mixed-precision panel's
    tiles, every tile of schemas 1 and 2) is freed once it is, and no
    mapped page of it stays resident.
    """
    members, unread = {}, {}
    for key in keys:
        info = archive.getinfo(f"{key}.npy")
        try:
            members[key] = _mapped_member(handle, info, mapping, adopted)
            if members[key] is None:
                with archive.open(info) as stream:
                    members[key] = unread[key] = _npy_header(stream)
        except ValueError as exc:
            raise ValueError(f"{key!r} {exc}") from exc
    in_block = lambda shape: adopted and len(shape) > 1  # noqa: E731
    pad = lambda size: -(-size // _ALIGN) * _ALIGN  # noqa: E731
    block = np.empty(sum(pad(size) for shape, _, _, size in unread.values() if in_block(shape)), np.uint8)
    offset = 0
    for key, (shape, fortran, dtype, size) in unread.items():
        if in_block(shape):
            raw, offset = block[offset:offset + size], offset + pad(size)
        else:
            raw = np.empty(size, np.uint8)
        with archive.open(f"{key}.npy") as stream:
            _npy_header(stream)
            for at in range(0, size, 1 << 18):
                chunk = memoryview(raw)[at:at + (1 << 18)]
                if stream.readinto(chunk) < len(chunk):
                    raise ValueError(f"{key!r} is truncated")
        members[key] = shape, fortran, dtype, raw
    arrays = {}
    for key, (shape, fortran, dtype, raw) in members.items():
        array = raw.view(dtype)
        arrays[key] = array.reshape(shape[::-1]).T if fortran else array.reshape(shape)
    return arrays


@dataclass
class EmulatorArtifact:
    """A serialisable snapshot of a fitted :class:`ClimateEmulator`.

    Parameters
    ----------
    state:
        Nested state dict as produced by ``ClimateEmulator.state_dict()``
        (arrays and JSON-able metadata).
    schema_version:
        Layout version written to / read from disk.
    source_version:
        ``repro`` library version that produced the state.
    """

    state: dict
    schema_version: int = SCHEMA_VERSION
    source_version: str = field(default=__version__)

    # ------------------------------------------------------------------ #
    # Emulator round trip
    # ------------------------------------------------------------------ #
    @classmethod
    def from_emulator(cls, emulator: ClimateEmulator) -> "EmulatorArtifact":
        """Snapshot a fitted emulator."""
        return cls(state=emulator.state_dict())

    def to_emulator(self) -> ClimateEmulator:
        """Rebuild the fitted emulator this artifact snapshots.

        Raises
        ------
        ArtifactError
            When a member is missing or disagrees with the shapes the
            metadata declares (truncated or hand-edited artifact); the
            message names the member.
        """
        try:
            return ClimateEmulator.from_state(self.state)
        except UnknownBackendError:
            raise  # a well-formed artifact naming a backend this build lacks
        except (KeyError, ValueError) as exc:
            raise ArtifactError(f"artifact state is not a fitted emulator: {exc}") from exc

    # ------------------------------------------------------------------ #
    # Flattening
    # ------------------------------------------------------------------ #
    def _flatten(self) -> tuple[dict[str, np.ndarray], dict]:
        """Split the nested state into NPZ arrays and a JSON metadata tree."""
        arrays: dict[str, np.ndarray] = {}
        return arrays, _split(self.state, "", arrays)

    @staticmethod
    def _unflatten(arrays: dict[str, np.ndarray], meta_tree: dict) -> dict:
        """Merge NPZ arrays back into the metadata tree."""
        state = json.loads(json.dumps(meta_tree))  # deep copy, plain types
        for path, array in arrays.items():
            parts = path.split("/")
            node = state
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = array
        return state

    # ------------------------------------------------------------------ #
    # I/O
    # ------------------------------------------------------------------ #
    def _write(self, fh):
        arrays, meta_tree = self._flatten()
        meta = {
            "format": FORMAT_NAME,
            "schema_version": int(self.schema_version),
            "source_version": str(self.source_version),
            "state": meta_tree,
        }
        arrays[META_KEY] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        with zipfile.ZipFile(fh, "w") as archive:
            for name, array in arrays.items():
                _write_member(archive, fh, name, array)
        return fh

    def save(self, path: "str | os.PathLike") -> str:
        """Write the artifact to ``path`` (exact path, no ``.npz`` appended).

        The archive is written to a temporary ``.<name>.<token>.tmp`` beside
        the destination, which then replaces ``path`` in one rename: a
        process that maps the file ``path`` named before keeps its bytes,
        and a save that fails leaves ``path`` as it was.
        """
        target = os.path.realpath(path)  # replace a symlink's target, not the link
        directory, name = os.path.split(target)
        tmp = os.path.join(directory, f".{name}.{secrets.token_hex(6)}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                self._write(fh)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        return str(Path(path))

    def tobytes(self) -> bytes:
        """The serialised artifact as an in-memory byte string."""
        return self._write(io.BytesIO()).getvalue()

    def nbytes(self) -> int:
        """Measured size in bytes of the serialised artifact, written to a
        sink that only counts (and seeks, so the layout is a file's)."""
        return self._write(_ByteCounter()).size

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "EmulatorArtifact":
        """Read an artifact written by :meth:`save`.

        The matrices of a file :meth:`save` wrote (the factor's
        double-precision panels among them) are read-only views of one
        ``mmap`` of the file, each checked against its zip CRC-32 over the
        mapped bytes; every other member, and every member of a file
        written before the members were aligned, is read into memory,
        CRC-checked as it is read.  Replace a file that a running process
        loaded with :meth:`save` or ``mv``, never by copying over it.

        Raises
        ------
        ArtifactError
            When the file is not an emulator artifact, or a member fails
            its CRC-32 check (the message names the member).
        SchemaVersionError
            When the artifact's schema version is neither
            :data:`SCHEMA_VERSION` nor the older versions 1 to 3, which
            are still read (version 1's unused ``covariance`` member is
            skipped).
        """
        path = Path(path)
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise ArtifactError(f"cannot read {path} as an NPZ artifact: {exc}") from exc
        with handle:
            if handle.read(len(np.lib.format.MAGIC_PREFIX)) == np.lib.format.MAGIC_PREFIX:
                raise ArtifactError(
                    f"{path} is a plain array file, not a {FORMAT_NAME} archive"
                )
            try:
                archive = zipfile.ZipFile(handle)
            except (OSError, ValueError, zipfile.BadZipFile) as exc:
                raise ArtifactError(
                    f"cannot read {path} as an NPZ artifact: {exc}"
                ) from exc
            keys = [name[:-4] for name in archive.namelist() if name.endswith(".npy")]
            if META_KEY not in keys:
                raise ArtifactError(
                    f"{path} is an NPZ file but not a {FORMAT_NAME} "
                    f"(missing the {META_KEY!r} metadata member)"
                )
            mapping = _map(handle)
            try:
                meta = _read_arrays(handle, archive, mapping, [META_KEY], adopted=False)[META_KEY]
                meta = json.loads(bytes(meta).decode("utf-8"))
            except (OSError, ValueError, zipfile.BadZipFile) as exc:
                raise ArtifactError(f"{path} has a damaged member: {exc}") from exc
            if meta.get("format") != FORMAT_NAME:
                raise ArtifactError(
                    f"{path} declares format {meta.get('format')!r}, "
                    f"expected {FORMAT_NAME!r}"
                )
            version = int(meta.get("schema_version", -1))
            if version not in _READABLE_SCHEMA_VERSIONS:
                raise SchemaVersionError(
                    f"{path} uses artifact schema version {version}, but this "
                    f"build reads versions {_READABLE_SCHEMA_VERSIONS} (it writes "
                    f"{SCHEMA_VERSION}); re-save the emulator with a matching "
                    f"repro version"
                )
            try:
                arrays = _read_arrays(handle, archive, mapping, [
                    key for key in keys if key not in (META_KEY, _SCHEMA_1_COVARIANCE)
                ], adopted=version >= 3)
            except (OSError, ValueError, zipfile.BadZipFile) as exc:
                raise ArtifactError(f"{path} has a damaged member: {exc}") from exc
        state = cls._unflatten(arrays, meta.get("state", {}))
        return cls(
            state=state,
            schema_version=version,
            source_version=str(meta.get("source_version", "unknown")),
        )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Sizes and identity of the artifact (reporting helper)."""
        arrays, _ = self._flatten()
        return {
            "schema_version": int(self.schema_version),
            "source_version": str(self.source_version),
            "n_arrays": len(arrays),
            "array_values": int(sum(a.size for a in arrays.values())),
            "nbytes": self.nbytes(),
            "config": _jsonable(self.state.get("config", {})),
        }
