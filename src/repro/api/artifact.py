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

Schema 1 stored the dense ``spectral_model/covariance`` beside one deflated
``spectral_model/cholesky/tiles/<i>_<j>`` member per tile; schema 2 dropped
the covariance and packed the tiles into one ``tiles_<precision>`` buffer
per precision; schema 3 stored the panels, and beside them the factor's
flop, conversion and task totals; schema 4, the only one written, stores
the panels and codes alone.  :meth:`EmulatorArtifact.load` reads all four
(what a schema-3 factor carries beyond schema 4 is not read).
"""

from __future__ import annotations

import io
import json
import os
import zipfile
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
    """``(shape, fortran_order, dtype)`` of an ``.npy`` stream, left at its data."""
    version = np.lib.format.read_magic(member)
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(member)
    return np.lib.format.read_array_header_2_0(member)


def _read_arrays(archive: np.lib.npyio.NpzFile, keys: list, adopted: bool) -> dict:
    """The arrays of ``keys``, read CRC-checked.

    With ``adopted`` (schemas 3 and 4, which store the panels), matrices,
    which a load keeps as they are (the factor's double-precision panels
    among them), are views of one block: with a buffer each, scattered
    through the heap, the panels cost a ``campaign_L64`` round ~25 k page
    faults where one block costs ~8 k.  Every other member has a buffer of its own, so what a load
    unpacks (a mixed-precision panel's tiles, every tile of schemas 1 and
    2) is freed once it is.
    """
    headers = {}
    for key in keys:
        with archive.zip.open(f"{key}.npy") as member:
            shape, fortran, dtype = _npy_header(member)
        if dtype.hasobject:
            raise ValueError(f"{key!r} holds Python objects")
        size = int(np.prod(shape)) * dtype.itemsize
        headers[key] = shape, fortran, dtype, size, adopted and len(shape) > 1
    pad = lambda size: -(-size // 64) * 64  # noqa: E731
    block = np.empty(sum(pad(h[3]) for h in headers.values() if h[4]), np.uint8)
    arrays, offset = {}, 0
    for key, (shape, fortran, dtype, size, in_block) in headers.items():
        if in_block:
            raw, offset = block[offset:offset + size], offset + pad(size)
        else:
            raw = np.empty(size, np.uint8)
        with archive.zip.open(f"{key}.npy") as member:
            _npy_header(member)
            for start in range(0, size, 1 << 18):
                chunk = memoryview(raw)[start:start + (1 << 18)]
                if member.readinto(chunk) < len(chunk):
                    raise ValueError(f"{key!r} is truncated")
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
        payload = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        np.savez(fh, **arrays, **{META_KEY: payload})
        return fh

    def save(self, path: "str | os.PathLike") -> str:
        """Write the artifact to ``path`` (exact path, no ``.npz`` appended)."""
        path = Path(path)
        with open(path, "wb") as fh:
            self._write(fh)
        return str(path)

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

        Raises
        ------
        ArtifactError
            When the file is not an emulator artifact.
        SchemaVersionError
            When the artifact's schema version is neither
            :data:`SCHEMA_VERSION` nor the older versions 1 to 3, which
            are still read (version 1's unused ``covariance`` member is
            skipped).
        """
        path = Path(path)
        # Open the file ourselves: np.load(path) can leak its file handle
        # when the zip directory is corrupt (it opens the file before the
        # NpzFile takes ownership), and the handle is ours to close either way.
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise ArtifactError(f"cannot read {path} as an NPZ artifact: {exc}") from exc
        with handle:
            try:
                archive = np.load(handle, allow_pickle=False)
            except (OSError, ValueError, zipfile.BadZipFile) as exc:
                raise ArtifactError(
                    f"cannot read {path} as an NPZ artifact: {exc}"
                ) from exc
            if not isinstance(archive, np.lib.npyio.NpzFile):
                # np.load returns a bare array for .npy files without raising.
                raise ArtifactError(
                    f"{path} is a plain array file, not a {FORMAT_NAME} archive"
                )
            if META_KEY not in archive.files:
                raise ArtifactError(
                    f"{path} is an NPZ file but not a {FORMAT_NAME} "
                    f"(missing the {META_KEY!r} metadata member)"
                )
            meta = json.loads(bytes(np.asarray(archive[META_KEY])).decode("utf-8"))
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
                arrays = _read_arrays(archive, [
                    key for key in archive.files if key not in (META_KEY, _SCHEMA_1_COVARIANCE)
                ], adopted=version >= 3)
            except (OSError, ValueError, zipfile.BadZipFile) as exc:
                # Stored members are CRC-checked as they are read.
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
