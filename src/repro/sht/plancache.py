"""Process-safe cache of precomputed SHT plans.

Building a transform plan is the expensive, data-independent part of the
synthesis hot path: the per-order operators are ``O(L^3)`` values built
from the Wigner-d tables, and at ERA5 scale (``L = 720``) constructing
them dwarfs the cost of a single inverse transform.  Before this cache
every consumer that instantiated a
:class:`~repro.core.spectral_model.SpectralStochasticModel` — each
``repro.load`` of the same artifact, each campaign run — paid that cost
again.

:func:`get_plan` memoises the one transform, the FFT + Wigner-d
:class:`~repro.sht.transform.SHTPlan` of paper Eqs. 4-8, per process,
keyed on ``(lmax, ntheta, nphi)``.  Its ``sht_method`` argument names
that transform, ``"fast"``, and nothing else.

The cache is *per process* by construction (module state is never shared
across ``fork``/``spawn`` boundaries at the Python level): a process that
imports :mod:`repro` warms its own cache on first use and every run it
executes reuses the same tables.  Within a process — the service's
request threads, say — access is guarded by a lock, and a plan under
concurrent construction is kept at most once per key (the first
finished build wins; see :func:`get_plan`).

Cached plans are shared, so they must be treated as **read-only**; a
plan never mutates itself after construction.  The cache is unbounded —
the key space (band-limits x grids actually in use) is tiny in practice —
and :func:`clear_plan_cache` empties it explicitly (tests,
memory-pressure handling).  A dropped plan is simply rebuilt on next
use; nothing holds dangling references.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.obs import span
from repro.sht.grid import Grid
from repro.sht.transform import SHTPlan
from repro.util.registry import UnknownBackendError

__all__ = ["clear_plan_cache", "get_plan", "plan_cache_stats"]

_LOCK = threading.Lock()
_CACHE: dict[tuple, SHTPlan] = {}
_COUNTS = {"hits": 0, "misses": 0}


def _plan_nbytes(plan) -> int:
    """Resident bytes of a plan: the buffers its ndarrays keep alive.

    Walks the plan's ``__dict__`` through any nesting of lists, tuples
    and dicts and follows every array to the buffer that owns its memory
    (``.base``), counting each owning buffer once at its full size — a
    hundred operator views of one packed buffer cost that buffer, not a
    hundred times it, and a small view pins its whole base.  Every table
    is built eagerly in ``SHTPlan.__post_init__``, so a plan's measured
    size is fixed from the moment it enters the cache.
    """
    owners: dict[int, int] = {}
    pending = [vars(plan)]
    while pending:
        value = pending.pop()
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value.nbytes
        elif isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, (list, tuple)):
            pending.extend(value)
    return sum(owners.values())


def _check_sht_method(sht_method: str) -> None:
    """Refuse any ``sht_method`` but ``"fast"`` (matched in any case,
    ignoring spaces), naming it."""
    if str(sht_method).strip().lower().replace(" ", "") != "fast":
        raise UnknownBackendError(
            f"unknown SHT method {str(sht_method)!r}; the one transform is 'fast', "
            "the FFT + Wigner-d plan of paper Eqs. 4-8 (see docs/api.md#sht-plans)"
        )


def get_plan(sht_method: str, lmax: int, grid: Grid) -> SHTPlan:
    """The shared plan for ``(lmax, grid)``, built at most once.

    On a hit the *same object* (same operator tables) is
    returned to every caller in the process; on a miss the plan is built
    outside the lock (plan construction is ``O(L^3)`` and must not
    serialise unrelated lookups) and the first finished build is kept —
    a concurrent duplicate build of the same key is discarded, so all
    callers still converge on one shared plan.

    Parameters
    ----------
    sht_method:
        ``"fast"``, in any case; any other name raises
        :class:`~repro.util.registry.UnknownBackendError`.
    lmax:
        Band-limit ``L``.
    grid:
        Equiangular grid; must support the band-limit (enforced by the
        plan's constructor).

    Returns
    -------
    SHTPlan
        The plan at the requested band-limit and grid.  Treat it as
        read-only: it is shared.
    """
    _check_sht_method(sht_method)
    key = (int(lmax), int(grid.ntheta), int(grid.nphi))
    with _LOCK:
        plan = _CACHE.get(key)
        if plan is not None:
            _COUNTS["hits"] += 1
            return plan
    with span("sht.plan_cache.build", lmax=int(lmax)):
        built = SHTPlan(lmax=lmax, grid=grid)
    with _LOCK:
        plan = _CACHE.setdefault(key, built)
        _COUNTS["misses" if plan is built else "hits"] += 1
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss counters."""
    with _LOCK:
        _CACHE.clear()
        _COUNTS.update(hits=0, misses=0)


def plan_cache_stats() -> dict:
    """Cache observability: size, bytes, hit/miss counters.

    ``pid`` says which process's cache this is (each process reports
    its own counters); ``keys`` lists the cached ``(lmax, ntheta, nphi)``
    tuples in insertion order; ``bytes`` is the measured ndarray
    footprint of every cached plan.
    """
    with _LOCK:
        return {
            "size": len(_CACHE),
            "bytes": sum(_plan_nbytes(plan) for plan in _CACHE.values()),
            "hits": _COUNTS["hits"],
            "misses": _COUNTS["misses"],
            "pid": os.getpid(),
            "keys": list(_CACHE),
        }
