"""The error every unknown name raises.

The pipeline's named choices are closed tables — the scenario catalogue
:data:`repro.scenarios.registry.SCENARIOS`, the forcing-component kinds,
the Cholesky precision variants and the one SHT method — and a name none
of them holds raises :class:`UnknownBackendError` listing what is
accepted.  This module is a dependency-free leaf (it imports nothing
from ``repro``), so every layer can raise it; :mod:`repro` and
:mod:`repro.api` re-export it.
"""

from __future__ import annotations

__all__ = ["UnknownBackendError"]


class UnknownBackendError(ValueError):
    """A backend name that no registered backend answers to.

    Subclasses :class:`ValueError` so call sites that historically raised
    ``ValueError`` for unknown names keep their contract.
    """
