"""Top-level convenience API: ``repro.fit`` / ``save`` / ``load`` / ``emulate``.

The facade covers the fit-once / emulate-anywhere workflow in four calls:

>>> import repro                                      # doctest: +SKIP
>>> emulator = repro.fit(ensemble, lmax=16)           # doctest: +SKIP
>>> repro.save(emulator, "emulator.npz")              # doctest: +SKIP
>>> emulations = repro.emulate("emulator.npz", n_realizations=5)  # doctest: +SKIP
>>> for chunk in repro.emulate_stream("emulator.npz", n_times=8760):
...     write(chunk)                                  # doctest: +SKIP

Everything delegates to :class:`~repro.core.emulator.ClimateEmulator` and
:class:`~repro.api.artifact.EmulatorArtifact`; the class-based API remains
fully supported.
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.api.artifact import EmulatorArtifact
from repro.core.config import EmulatorConfig
from repro.core.emulator import ClimateEmulator
from repro.data.ensemble import ClimateEnsemble
from repro.obs import span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.spec import ScenarioSpec
    from repro.serving.service import EmulationService
    from repro.storage.chunkstore import ChunkStore

__all__ = ["emulate", "emulate_stream", "fit", "load", "save", "serve"]


def fit(
    ensemble: ClimateEnsemble,
    config: EmulatorConfig | None = None,
    **overrides,
) -> ClimateEmulator:
    """Fit a :class:`ClimateEmulator` on a simulation ensemble.

    Parameters
    ----------
    ensemble:
        The training ensemble; ``ensemble.data`` has shape
        ``(R, T, ntheta, nphi)`` and the grid must support the configured
        band-limit (``ntheta >= lmax + 1``, ``nphi >= 2*lmax - 1``).
    config:
        Emulator configuration; defaults to ``EmulatorConfig()``.
    **overrides:
        Individual :class:`EmulatorConfig` fields overriding ``config``
        (e.g. ``fit(ensemble, lmax=16, precision_variant="DP/SP")``).

    Returns
    -------
    ClimateEmulator
        The fitted emulator.  Fitting is deterministic: the same ensemble
        and configuration always produce bit-identical fitted state (no
        hidden randomness anywhere in the pipeline).
    """
    if config is None:
        config = EmulatorConfig(**overrides)
    elif overrides:
        config = dataclasses.replace(config, **overrides)
    with span(
        "facade.fit",
        lmax=config.lmax,
        n_ensemble=ensemble.data.shape[0],
        n_times=ensemble.data.shape[1],
        bytes=ensemble.data.nbytes,
    ):
        return ClimateEmulator(config).fit(ensemble)


def save(emulator: ClimateEmulator, path: "str | os.PathLike") -> str:
    """Persist a fitted emulator as an NPZ artifact; returns the path.

    Every array is stored losslessly at the dtype it is held in —
    ``float64`` throughout, except the Cholesky factor's tiles, which
    keep their storage precision (``float32`` / ``float16`` tiles under
    the mixed-precision variants) — so a :func:`load` round trip
    rebuilds an emulator that emulates bit-exactly as this one.  The
    innovation covariance is not stored: the factor is the model.

    Each member's array data starts 64-byte aligned, so :func:`load` can
    map it.  The save is atomic: the archive is written to a temporary
    file beside ``path`` that then replaces it in one rename, so an
    emulator loaded from the old file, even one a running service maps,
    keeps its bytes, and a failed save leaves ``path`` as it was.  Replace
    a live artifact this way (or with ``mv``), never by copying over it:
    ``cp`` rewrites the file in place, under the processes that map it.
    """
    with span("facade.save"):
        return emulator.save(path)


def load(path: "str | os.PathLike") -> ClimateEmulator:
    """Load a fitted emulator from an artifact written by :func:`save`.

    The loaded emulator emulates without the raw training ensemble and is
    bit-exactly equivalent to the emulator that was saved: under the same
    seeded generator both produce identical output.  The factor's panels
    and the other matrices of a file :func:`save` wrote are read-only views
    of one ``mmap`` of it, each checked against its zip CRC-32 first (a
    damaged member raises :class:`ArtifactError` naming it), so nothing is
    copied and processes loading one file share its pages; files written
    before members were aligned are read into memory.  Loading reuses the
    process-wide SHT plan cache (:func:`repro.sht.plancache.get_plan`),
    so repeated loads of artifacts sharing ``(lmax, grid)``
    rebuild the transform tables only once per process.
    """
    with span("facade.load"):
        return EmulatorArtifact.load(path).to_emulator()


def _resolve(source) -> ClimateEmulator:
    if isinstance(source, ClimateEmulator):
        return source
    if isinstance(source, (str, os.PathLike)):
        return load(source)
    raise TypeError(
        f"expected a ClimateEmulator or an artifact path, got {type(source).__name__}"
    )


def emulate(
    source,
    n_realizations: int = 1,
    n_times: int | None = None,
    annual_forcing: "np.ndarray | str | ScenarioSpec | None" = None,
    rng: "int | np.random.Generator | None" = None,
    include_nugget: bool = True,
) -> ClimateEnsemble:
    """Generate emulations from a fitted emulator or a saved artifact path.

    ``annual_forcing`` accepts a raw annual array, a registered scenario
    name (``"ssp-high"``; see :func:`repro.list_scenarios`) or a
    :class:`~repro.scenarios.spec.ScenarioSpec`.  Bare names resolve at
    the registry's default baseline (``start_level=2.5``); for a
    different baseline pass the spec
    ``repro.scenarios.resolve_scenario(name, start_level=...)``.  See
    :meth:`ClimateEmulator.emulate` for the remaining parameters.

    Returns
    -------
    ClimateEnsemble
        ``data`` is ``float64`` of shape
        ``(n_realizations, n_times, ntheta, nphi)``.  Output is a
        deterministic function of the fitted state and an int ``rng``:
        member ``r`` is realization ``r`` of :func:`serve` and
        :func:`repro.run_campaign` under that seed, bit for bit.
    """
    with span(
        "facade.emulate", n_realizations=n_realizations, n_times=n_times
    ) as sp:
        result = _resolve(source).emulate(
            n_realizations=n_realizations,
            n_times=n_times,
            annual_forcing=annual_forcing,
            rng=rng,
            include_nugget=include_nugget,
        )
        sp.set(bytes=result.data.nbytes, shape=result.data.shape)
    return result


def emulate_stream(
    source,
    n_realizations: int = 1,
    n_times: int | None = None,
    annual_forcing: "np.ndarray | str | ScenarioSpec | None" = None,
    rng: "int | np.random.Generator | None" = None,
    include_nugget: bool = True,
) -> Iterator[ClimateEnsemble]:
    """Stream emulation chunks from a fitted emulator or artifact path.

    ``annual_forcing`` accepts a raw annual array, a registered scenario
    name or a :class:`~repro.scenarios.spec.ScenarioSpec`.  See
    :meth:`ClimateEmulator.emulate_stream` for the remaining parameters.

    Yields
    ------
    ClimateEnsemble
        Consecutive one-model-year chunks with ``float64`` ``data`` of
        shape ``(n_realizations, <=steps_per_year, ntheta, nphi)``, VAR
        state carried across chunks.  Concatenated, they are
        :func:`emulate`'s output under the same ``rng``, bit for bit.
    """
    stream = _resolve(source).emulate_stream(
        n_realizations=n_realizations,
        n_times=n_times,
        annual_forcing=annual_forcing,
        rng=rng,
        include_nugget=include_nugget,
    )

    def _traced() -> Iterator[ClimateEnsemble]:
        # Each next() is timed as its own span, so a trace shows where
        # the stream's wall time went chunk by chunk; the generator
        # stays lazy and yields outside the span.
        iterator = iter(stream)
        index = 0
        while True:
            with span("facade.emulate_stream.chunk", chunk=index) as sp:
                try:
                    chunk = next(iterator)
                except StopIteration:
                    sp.set(exhausted=True)
                    return
                sp.set(bytes=chunk.data.nbytes)
            yield chunk
            index += 1

    return _traced()


def serve(
    source,
    *,
    seed: int = 0,
    # Mirrors repro.serving.service.DEFAULT_CACHE_BYTES (a literal here so
    # the default does not force an import of the serving layer; pinned
    # equal by tests).  None means unlimited, exactly as it does on
    # EmulationService.
    cache_bytes: "int | None" = 256 * 2**20,
    store: "ChunkStore | str | os.PathLike | None" = None,
) -> "EmulationService":
    """Build an on-demand :class:`EmulationService` over a fitted emulator.

    The service answers :class:`~repro.serving.request.FieldRequest`
    objects from a bytes-capped chunk cache, an optional persistent
    :class:`~repro.storage.chunkstore.ChunkStore`, or fresh synthesis —
    with single-flight locking: one flight per ``(stream, realization)``,
    so identical requests compute once and other realizations run at once.
    Realization ``r`` draws from ``SeedSequence(seed, spawn_key=(r,))``,
    so every served field is a pure function of ``(artifact, seed,
    request)``; see :mod:`repro.serving.service` for the bit-exactness
    contract.

    Parameters
    ----------
    source:
        A fitted emulator or an artifact path.
    seed:
        Root entropy of the service.
    cache_bytes:
        In-memory chunk-cache budget in bytes (default 256 MiB; ``None``
        for unlimited) — a pure capacity knob, so served bytes are
        identical for every setting.
    store:
        A :class:`~repro.storage.chunkstore.ChunkStore` or a directory
        path; a lossy (``int16``) store is refused.
    """
    # Imported lazily: the serving layer sits above the facade.
    from repro.serving.service import EmulationService

    with span("facade.serve", seed=seed):
        return EmulationService(source, seed=seed, cache_bytes=cache_bytes, store=store)
