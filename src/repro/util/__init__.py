"""Dependency-free utilities shared across layers.

Modules here may be imported by any package in the library (including the
leaf packages :mod:`repro.sht` and :mod:`repro.linalg`) and must therefore
not import from any other ``repro`` subpackage.

* :mod:`repro.util.registry` — the :class:`BackendRegistry` mechanism
  behind the named SHT and Cholesky-precision backends (re-exported through
  :mod:`repro.api.registry` for the public API).
* :mod:`repro.util.compare` — bit-exact ``state_dict`` tree comparison,
  shared by the test-suite and the benchmark harness to pin the
  determinism contracts.
* :mod:`repro.util.numerics` — ``NUMERICS_REVISION``, the stamp a
  persistent tier records so it never answers for another revision's
  output bits.
"""

from repro.util.compare import assert_states_bit_identical
from repro.util.registry import BackendRegistry, BackendSpec, UnknownBackendError

__all__ = [
    "BackendRegistry",
    "BackendSpec",
    "UnknownBackendError",
    "assert_states_bit_identical",
]
