"""Request model of the on-demand emulation service.

A :class:`FieldRequest` is the frozen unit the service trades in: *which
field does the caller want?*  It names a forcing scenario (registered name
or :class:`~repro.scenarios.spec.ScenarioSpec`), a realization index, a
half-open model-year range and an optional spatial window, and it
**canonicalizes** to a deterministic content-address: every spelling of
the same request — scenario alias vs primary name vs the resolved spec —
hashes to the same hex digest, so caches, stores and logs can key on the
address alone.

Two address granularities exist on purpose:

* :meth:`FieldRequest.address` — the full request (scenario, realization,
  years, window, nugget).  One address = one exact served array.
* :meth:`FieldRequest.stream_address` + :func:`chunk_address` — the
  synthesis stream the request draws from.  Chunks are cached per
  ``(stream, realization, year)`` and shared by every request shape that
  touches that year, whatever its year span or window.

The request owns neither derivation: the stream address is
:func:`repro.scenarios.registry.stream_address` and the chunk address
:func:`repro.storage.address.chunk_address`, the same functions a
campaign files its chunks with.  Both are pure functions of the
request's values and both are memoised, so serving a request the cache
or store already holds costs memo lookups, a cache lookup and one copy —
the scenario's factory runs only when a synthesis flight does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.window import SpatialWindow
from repro.scenarios.registry import resolve_scenario, stream_address, stream_state
from repro.scenarios.spec import ScenarioSpec
from repro.storage.address import ADDRESS_SCHEMA, chunk_address, content_address

__all__ = ["FieldRequest", "chunk_address"]


@dataclass(frozen=True)
class FieldRequest:
    """A frozen, content-addressable request for an emulated field.

    Parameters
    ----------
    scenario:
        Registered scenario name (aliases allowed) or a
        :class:`~repro.scenarios.spec.ScenarioSpec`.  Names resolve at
        ``start_level``; all spellings of one pathway share one address.
    realization:
        Realization index ``r >= 0``.  The service draws realization
        ``r`` from ``np.random.SeedSequence(seed, spawn_key=(r,))`` — the
        same stream realization ``r`` of every campaign scenario uses.
    year_start / year_stop:
        Half-open model-year range ``[year_start, year_stop)`` relative
        to emulation year 0.  ``year_stop=None`` means one year.
    window:
        Optional :class:`~repro.core.window.SpatialWindow` cut out of the
        full-grid field at assembly time.
    include_nugget:
        Include the truncation nugget (part of the stream identity: the
        nugget interleaves with the innovation draws).
    start_level:
        Baseline forcing used when ``scenario`` is a bare name; ignored
        for explicit specs.

    Examples
    --------
    >>> FieldRequest("ssp-high", realization=2, year_start=0,
    ...              year_stop=3).n_years
    3
    >>> FieldRequest("ssp-high").address() == FieldRequest("ssp5-8.5").address()
    True
    """

    scenario: "str | ScenarioSpec"
    realization: int = 0
    year_start: int = 0
    year_stop: "int | None" = None
    window: "SpatialWindow | None" = None
    include_nugget: bool = True
    start_level: float = 2.5

    def __post_init__(self) -> None:
        if self.year_stop is None:
            object.__setattr__(self, "year_stop", self.year_start + 1)
        # A float or a ``bool`` is refused rather than truncated: ``2.5``
        # would serve realization 2, and ``True`` realization 1.
        for name in ("realization", "year_start", "year_stop"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "include_nugget", bool(self.include_nugget))
        object.__setattr__(self, "start_level", float(self.start_level))
        if not isinstance(self.scenario, (str, ScenarioSpec)):
            raise TypeError(
                f"scenario must be a name or a ScenarioSpec, "
                f"got {type(self.scenario).__name__}"
            )
        if self.realization < 0:
            raise ValueError(f"realization must be >= 0, got {self.realization}")
        if self.year_start < 0:
            raise ValueError(f"year_start must be >= 0, got {self.year_start}")
        if self.year_stop <= self.year_start:
            raise ValueError(
                f"year range [{self.year_start}, {self.year_stop}) is empty"
            )
        if self.window is not None and not isinstance(self.window, SpatialWindow):
            raise TypeError(
                f"window must be a SpatialWindow, got {type(self.window).__name__}"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def n_years(self) -> int:
        """Number of requested model years."""
        return self.year_stop - self.year_start

    @property
    def years(self) -> range:
        """The requested model years, ``year_start .. year_stop - 1``."""
        return range(self.year_start, self.year_stop)

    def resolve_spec(self) -> ScenarioSpec:
        """The resolved scenario spec (names looked up at ``start_level``)."""
        return resolve_scenario(self.scenario, start_level=self.start_level)

    # ------------------------------------------------------------------ #
    # Canonicalization
    # ------------------------------------------------------------------ #
    def stream_state(self) -> dict:
        """Canonical state of the synthesis stream the request draws from.

        See :func:`repro.scenarios.registry.stream_state`: the resolved
        scenario and the nugget flag, nothing that merely selects from
        the stream.
        """
        return stream_state(self.scenario, self.start_level, self.include_nugget)

    def stream_address(self) -> str:
        """Hex content-address of the synthesis stream family (memoised)."""
        return stream_address(self.scenario, self.start_level, self.include_nugget)

    def chunk_addresses(self) -> dict[int, str]:
        """Mapping ``year -> chunk address`` for every requested year."""
        stream = self.stream_address()
        return {
            year: chunk_address(stream, self.realization, year)
            for year in self.years
        }

    def canonical_state(self) -> dict:
        """The full canonical request state (JSON-able, address input)."""
        return {
            "schema": ADDRESS_SCHEMA,
            "kind": "request",
            "stream": self.stream_state(),
            "realization": self.realization,
            "year_start": self.year_start,
            "year_stop": self.year_stop,
            "window": self.window.state_dict() if self.window is not None else None,
        }

    def address(self) -> str:
        """Deterministic hex content-address of the whole request.

        Equal for every spelling of the same request: scenario aliases,
        primary names and the resolved spec all canonicalize identically,
        and field order cannot matter (keys are sorted before hashing).
        """
        return content_address(self.canonical_state())
