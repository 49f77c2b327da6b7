"""Process-safe cache of precomputed SHT plans.

Building a transform plan is the expensive, data-independent part of the
synthesis hot path: the per-order operators are ``O(L^3)`` values built
from the Wigner-d tables, and at ERA5 scale (``L = 720``) constructing
them dwarfs the cost of a single inverse transform.  Before this cache
every consumer that instantiated a
:class:`~repro.core.spectral_model.SpectralStochasticModel` — each
``repro.load`` of the same artifact, each campaign run — paid that cost
again.

:func:`get_plan` memoises plans per process, keyed on
``(backend, lmax, grid)``:

* **backend** is resolved through
  :data:`repro.sht.backends.SHT_BACKENDS`, so aliases share one entry
  (``"fft"`` and ``"fast"`` hit the same plan) and re-registering a name
  (``overwrite=True``) starts a fresh entry rather than serving a stale
  plan (the registry stamps every registration with a revision counter);
* **lmax / grid** pin the band-limit and the ``(ntheta, nphi)`` shape.

The cache is *per process* by construction (module state is never shared
across ``fork``/``spawn`` boundaries at the Python level): a process that
imports :mod:`repro` warms its own cache on first use and every run it
executes reuses the same tables.  Within a process — the thread workers
of :func:`repro.run_campaign`, the service's request threads — access is
guarded by a lock, and a plan under concurrent construction is built at
most once per key (the first finished build wins; see :func:`get_plan`).

Cached plans are shared, so they must be treated as **read-only**; the
built-in backends never mutate a plan after construction, and custom
backends registered with ``SHT_BACKENDS.register`` must follow the same
contract to be cacheable.  The cache is unlimited by default — the key
space (backends x band-limits x grids actually in use) is tiny in
practice — but long-lived serving processes that touch many band-limits
can cap it: :func:`set_plan_cache_limit` installs a bytes budget under
which least-recently-used plans are evicted (eviction counts surface in
:func:`plan_cache_stats`), and :func:`clear_plan_cache` empties the
cache explicitly (tests, memory-pressure handling).  An evicted plan is
simply rebuilt on next use; nothing holds dangling references.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.obs import get_registry, span
from repro.sht.backends import SHT_BACKENDS
from repro.sht.grid import Grid

__all__ = [
    "clear_plan_cache",
    "get_plan",
    "plan_cache_key",
    "plan_cache_stats",
    "set_plan_cache_limit",
]

_LOCK = threading.Lock()
_CACHE: dict[tuple, object] = {}
_LIMIT_BYTES: "int | None" = None

#: Registry prefix for the cache's counters (hits/misses/evictions live
#: on the process-wide metrics registry; ``plan_cache_stats`` is a view).
_METRIC_PREFIX = "sht.plan_cache"


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


def _evict_over_limit_locked(keep: "tuple | None") -> None:
    """Drop least-recently-used plans until the cache fits the limit.

    ``keep`` (the key just served) is never evicted — even when it alone
    exceeds the whole budget — so the caller's plan is not churned out
    by its own insertion.  Plans are immutable after construction
    (every table is built eagerly in ``SHTPlan.__post_init__``), so each
    plan's size is measured once per eviction pass; cache contents can
    only grow through insertions, which all route through here.
    """
    if _LIMIT_BYTES is None:
        return
    sizes = {key: _plan_nbytes(plan) for key, plan in _CACHE.items()}
    total = sum(sizes.values())
    for key in list(_CACHE):
        if total <= _LIMIT_BYTES:
            return
        if key == keep:
            continue
        del _CACHE[key]
        total -= sizes[key]
        get_registry().add(f"{_METRIC_PREFIX}.evictions")


def set_plan_cache_limit(max_bytes: "int | None") -> None:
    """Install (or remove) a bytes budget on the plan cache.

    ``None`` (the default) keeps the cache unlimited — existing
    behaviour is unchanged unless a limit is set.  With a limit,
    least-recently-used plans are evicted whenever the measured total
    (see :func:`plan_cache_stats` ``"bytes"``) exceeds the budget; the
    most-recently-served plan survives even if it alone is over budget,
    so a single oversized plan still serves.  Eviction counts accumulate
    in :func:`plan_cache_stats` ``"evictions"``.
    """
    global _LIMIT_BYTES
    if max_bytes is not None and int(max_bytes) < 0:
        raise ValueError(f"max_bytes must be >= 0 or None, got {max_bytes}")
    with _LOCK:
        _LIMIT_BYTES = None if max_bytes is None else int(max_bytes)
        _evict_over_limit_locked(keep=None)


def plan_cache_key(sht_method: str, lmax: int, grid: Grid) -> tuple:
    """The cache key for a plan request: ``(name, revision, lmax, ntheta, nphi)``.

    The backend name is canonicalised through the registry (aliases map to
    the primary name, lookup is case-insensitive) and carries the
    registration revision, so a re-registered backend never answers from a
    stale entry.  Raises
    :class:`~repro.util.registry.UnknownBackendError` for names the
    registry does not know.
    """
    spec = SHT_BACKENDS.resolve(sht_method)
    return (spec.name, spec.revision, int(lmax), int(grid.ntheta), int(grid.nphi))


def get_plan(sht_method: str, lmax: int, grid: Grid):
    """The shared plan for ``(sht_method, lmax, grid)``, built at most once.

    On a hit the *same object* (same operator tables) is
    returned to every caller in the process; on a miss the backend factory
    runs outside the lock (plan construction is ``O(L^3)`` and must not
    serialise unrelated lookups) and the first finished build is kept —
    a concurrent duplicate build of the same key is discarded, so all
    callers still converge on one shared plan.

    Parameters
    ----------
    sht_method:
        Registered backend name or alias (``"fast"``, ``"direct"``, ...).
    lmax:
        Band-limit ``L``.
    grid:
        Equiangular grid; must support the band-limit (enforced by the
        backend's own constructor).

    Returns
    -------
    object
        A plan exposing ``forward`` / ``inverse`` at the requested
        band-limit and grid.  Treat it as read-only: it is shared.
    """
    key = plan_cache_key(sht_method, lmax, grid)
    with _LOCK:
        plan = _CACHE.get(key)
        if plan is not None:
            get_registry().add(f"{_METRIC_PREFIX}.hits")
            # Dicts preserve insertion order; re-inserting keeps the
            # cache LRU-ordered for the bytes-limit eviction policy.
            # No budget re-check here: plans are immutable after
            # construction, so a hit cannot change the cache's byte
            # total — only insertions (the miss path) can.
            del _CACHE[key]
            _CACHE[key] = plan
            return plan
    with span(f"{_METRIC_PREFIX}.build", backend=key[0], lmax=int(lmax)):
        built = SHT_BACKENDS.resolve(sht_method).factory(lmax=lmax, grid=grid)
    with _LOCK:
        plan = _CACHE.setdefault(key, built)
        if plan is built:
            get_registry().add(f"{_METRIC_PREFIX}.misses")
            _evict_over_limit_locked(keep=key)
        else:
            get_registry().add(f"{_METRIC_PREFIX}.hits")
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss/eviction counters.

    The bytes limit installed by :func:`set_plan_cache_limit` is
    configuration, not contents: it survives a clear.  The counters live
    on the process-wide metrics registry under ``sht.plan_cache.``;
    resetting that prefix leaves every other component's metrics alone.
    """
    with _LOCK:
        _CACHE.clear()
        get_registry().reset(_METRIC_PREFIX)


def plan_cache_stats() -> dict:
    """Cache observability: size, bytes, hit/miss/eviction counters.

    ``pid`` says which process's cache this is (each process reports
    its own counters); ``keys`` lists the cached
    ``(backend, revision, lmax, ntheta, nphi)`` tuples in LRU-to-MRU
    order; ``bytes`` is the measured ndarray footprint of every cached
    plan and ``limit_bytes``/``evictions`` describe the optional budget
    (see :func:`set_plan_cache_limit`; ``limit_bytes`` is ``None`` when
    unlimited).
    """
    registry = get_registry()
    with _LOCK:
        return {
            "size": len(_CACHE),
            "bytes": sum(_plan_nbytes(plan) for plan in _CACHE.values()),
            "hits": int(registry.counter(f"{_METRIC_PREFIX}.hits")),
            "misses": int(registry.counter(f"{_METRIC_PREFIX}.misses")),
            "evictions": int(registry.counter(f"{_METRIC_PREFIX}.evictions")),
            "limit_bytes": _LIMIT_BYTES,
            "pid": os.getpid(),
            "keys": list(_CACHE),
        }
