"""Public API layer: artifacts and the facade.

This subpackage hosts the emulator's public surface:

* :class:`UnknownBackendError`, the error every unknown name raises,
  re-exported from the dependency-free :mod:`repro.util.registry`.
* :mod:`repro.api.artifact` — the versioned, NPZ-backed
  :class:`EmulatorArtifact` that persists a fitted emulator (the
  "parameters replace petabytes" story made durable).
* :mod:`repro.api.facade` — the top-level ``fit`` / ``save`` / ``load`` /
  ``emulate`` / ``emulate_stream`` convenience functions re-exported as
  ``repro.fit`` etc.

Every pipeline stage follows one serialisation protocol: ``state_dict()``
returns a nested dict of arrays and JSON-able metadata, and the classmethod
``from_state(state)`` rebuilds the fitted object bit-exactly.
"""

from __future__ import annotations

from repro.util.registry import UnknownBackendError
from repro.api.artifact import (
    SCHEMA_VERSION,
    ArtifactError,
    EmulatorArtifact,
    SchemaVersionError,
)
from repro.api.facade import emulate, emulate_stream, fit, load, save

__all__ = [
    "ArtifactError",
    "EmulatorArtifact",
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "UnknownBackendError",
    "emulate",
    "emulate_stream",
    "fit",
    "load",
    "save",
]
