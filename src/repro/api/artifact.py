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
which is what ``ClimateEmulator.storage_summary`` and
:func:`repro.storage.accounting.measured_artifact_report` quote next to the
theoretical parameter counts.

File layout
-----------
One NPZ member per array, named by its ``/``-joined path in the nested
state dict (e.g. ``spectral_model/cholesky/tiles_fp64``); one ``uint8``
member (:data:`META_KEY`) holding the UTF-8 JSON metadata: schema version,
library version, and the non-array part of the state tree.  ``allow_pickle``
is never used, so artifacts are safe to load from untrusted sources.

Schema 1 stored the dense ``spectral_model/covariance`` beside one deflated
``spectral_model/cholesky/tiles/<i>_<j>`` member per tile; schema 2, the only
one written, drops the covariance and packs the tiles into one buffer per
precision.  :meth:`EmulatorArtifact.load` reads both.
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
from repro.api.registry import UnknownBackendError
from repro.core.emulator import ClimateEmulator

__all__ = [
    "ArtifactError",
    "EmulatorArtifact",
    "META_KEY",
    "SCHEMA_VERSION",
    "SchemaVersionError",
]

#: Artifact schema version written; bumped on incompatible layout changes.
SCHEMA_VERSION = 2

#: Schema versions :meth:`EmulatorArtifact.load` reads.
_READABLE_SCHEMA_VERSIONS = (1, SCHEMA_VERSION)

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
    def _write(self, fh) -> None:
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

    def save(self, path: "str | os.PathLike") -> str:
        """Write the artifact to ``path`` (exact path, no ``.npz`` appended)."""
        path = Path(path)
        with open(path, "wb") as fh:
            self._write(fh)
        return str(path)

    def tobytes(self) -> bytes:
        """The serialised artifact as an in-memory byte string."""
        buffer = io.BytesIO()
        self._write(buffer)
        return buffer.getvalue()

    def nbytes(self) -> int:
        """Measured size in bytes of the serialised artifact."""
        return len(self.tobytes())

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "EmulatorArtifact":
        """Read an artifact written by :meth:`save`.

        Raises
        ------
        ArtifactError
            When the file is not an emulator artifact.
        SchemaVersionError
            When the artifact's schema version is neither
            :data:`SCHEMA_VERSION` nor the older version 1, which is
            still read (its unused ``covariance`` member is skipped).
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
                arrays = {
                    key: np.asarray(archive[key])
                    for key in archive.files
                    if key not in (META_KEY, _SCHEMA_1_COVARIANCE)
                }
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
