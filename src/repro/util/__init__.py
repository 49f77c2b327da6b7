"""Dependency-free utilities shared across layers.

Modules here may be imported by any package in the library (including the
leaf packages :mod:`repro.sht` and :mod:`repro.linalg`) and must therefore
not import from any other ``repro`` subpackage.

* :mod:`repro.util.registry` — the :class:`UnknownBackendError` every
  unknown name raises (re-exported by :mod:`repro` and :mod:`repro.api`).
* :mod:`repro.util.numerics` — ``NUMERICS_REVISION``, the stamp a
  persistent tier records so it never answers for another revision's
  output bits.
"""

from repro.util.registry import UnknownBackendError

__all__ = ["UnknownBackendError"]
