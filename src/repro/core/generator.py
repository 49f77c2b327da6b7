"""Emulation generation (paper Section III-B).

Given a fitted emulator, new realisations are produced by

1. drawing spectral innovations ``xi_t ~ N(0, U)`` with the Cholesky factor
   ``V`` (``O(L^2 T)`` once the factor exists),
2. rolling the diagonal VAR forward to obtain the coefficient series
   ``f_t``,
3. inverse spherical harmonic transform to the grid (``O(L^3 T)``),
4. adding the truncation nugget ``epsilon_t ~ N(0, v^2)`` in place,
5. re-applying the scale field ``sigma`` in place, then the mean trend
   ``m_t`` (Eq. 1).  The forcing enters only ``m_t``, so one year's
   ``sigma * Z_t`` can be restored under several forcing scenarios (a
   campaign's realization block draws each year once for all of them, and
   the service remembers it per realization-year).

Each step runs under a ``generate.*`` span (step 3: ``sht.inverse``).  Only
the normals and the nugget reuse scratch: callers keep each year's array.

There is one draw schedule, :meth:`EmulationGenerator.generate_stream_multi`
(one model year at a time), and one seeding rule, :func:`_member_seeds`
(member ``r`` of seed ``s`` draws from ``SeedSequence(s, spawn_key=(r,))``).
Every entry point — ``emulate``, ``emulate_stream``,
:func:`repro.run_campaign` and :func:`repro.serve` — goes through both, so
a field is a pure function of (artifact, seed, request).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

import numpy as np

from repro.core.scale import ScaleField
from repro.core.spectral_model import SpectralStochasticModel
from repro.core.trend import MeanTrendModel, TrendFit
from repro.data.ensemble import ClimateEnsemble
from repro.obs import span
from repro.sht.grid import Grid

__all__ = ["EmulationGenerator"]


def _member_seeds(seed: "int | None", realizations) -> "list[np.random.SeedSequence]":
    """The one seeding rule: member ``r`` draws from ``SeedSequence(seed, spawn_key=(r,))``.

    ``emulate`` / ``emulate_stream`` with an int ``rng``, the campaign
    planner and the serving tier all seed here, so member ``r`` of a seed
    is one stream whichever entry point draws it.  ``None`` takes fresh
    entropy and applies the same rule to it.
    """
    if seed is None:
        seed = np.random.SeedSequence().entropy
    return [np.random.SeedSequence(seed, spawn_key=(int(r),)) for r in realizations]


def _member_rngs(rng, realizations) -> "list[np.random.Generator]":
    """One generator per realization from a single ``rng`` argument.

    The only place a seed becomes a generator: an int seeds realization
    ``r`` by :func:`_member_seeds`, ``None`` does the same from fresh
    entropy, and a ``Generator`` is taken as is for a one-member call
    only: shared by several members it would correlate them, and its
    draws would depend on how many shared it.
    """
    realizations = list(realizations)
    if not realizations:
        raise ValueError("n_realizations must be positive")
    if isinstance(rng, np.random.Generator):
        if len(realizations) != 1:
            raise ValueError(
                f"a Generator seeds one member, not {len(realizations)}: pass an "
                f"int seed, rng=<int>, and member r draws from "
                f"SeedSequence(seed, spawn_key=(r,))"
            )
        return [rng]
    if rng is not None and (isinstance(rng, bool) or not isinstance(rng, (int, np.integer))):
        raise TypeError(
            f"rng must be an int seed, None or (for one member) a Generator, "
            f"got {type(rng).__name__}"
        )
    return [np.random.default_rng(seq) for seq in _member_seeds(rng, realizations)]


def _checked_count(name: str, value) -> int:
    """A positive integer count (``n_times``, ``n_realizations``, ...).

    A float or a ``bool`` raises ``ValueError`` rather than being
    truncated: ``n_times=24.9`` would otherwise run 24 steps and
    ``n_realizations=True`` one member.  Numpy integers are accepted.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def _check_chunk_size(chunk_size: "int | None", steps_per_year: int) -> None:
    """Refuse a ``chunk_size`` other than ``None`` / ``steps_per_year``."""
    if chunk_size is not None and chunk_size != steps_per_year:
        raise ValueError(
            f"chunk_size must be None or steps_per_year={steps_per_year} (a chunk "
            f"is one model year), got {chunk_size}"
        )


@dataclass
class EmulationGenerator:
    """Generate emulations from fitted emulator components.

    Parameters
    ----------
    trend_model / trend_fit:
        The fitted mean-trend model.
    scale:
        The fitted scale field.
    spectral_model:
        The fitted spectral stochastic model.
    grid:
        Spatial grid of the output.
    steps_per_year:
        Temporal resolution of the output.
    """

    trend_model: MeanTrendModel
    trend_fit: TrendFit
    scale: ScaleField
    spectral_model: SpectralStochasticModel
    grid: Grid
    steps_per_year: int

    def generate_stream_multi(
        self,
        rngs: "list[np.random.Generator]",
        n_times: int,
        annual_forcing: np.ndarray,
        include_nugget: bool = True,
        start_year: int = 1940,
        chunk_size: int | None = None,
    ) -> Iterator[ClimateEnsemble]:
        """Yield ``B = len(rngs)`` realisations, one model year per chunk.

        The one draw schedule.  Each model year, member ``b`` draws that
        year's innovations and then that year's nugget from ``rngs[b]``
        and from nothing else, so year ``y`` depends only on years
        ``<= y``: a record of any length is a prefix of every longer one,
        and a record that is not a whole number of years is the leading
        steps of its last whole year.  The VAR history is carried across
        years and the mean trend is evaluated at each year's absolute
        offset.  The VAR recursion, the inverse SHT and the trend/scale
        restore run once on the stacked batch (see
        :meth:`SpectralStochasticModel.generate_standardized_stream_multi
        <repro.core.spectral_model.SpectralStochasticModel.generate_standardized_stream_multi>`),
        and member ``b`` is bit-identical to the batch-of-one stream under
        ``rngs[b]``.  The forcing enters only through the mean trend: this
        is the one-forcing case of :meth:`_stream_under`, which
        :func:`repro.run_campaign` uses to restore one block's
        standardized years under every scenario of the campaign.

        Parameters
        ----------
        rngs:
            One distinct generator per member; one ``Generator`` object in
            two slots raises ``ValueError``.
        n_times:
            Time steps of the record.
        annual_forcing:
            Annual forcing trajectory driving the mean trend (may be a new
            scenario; must cover ``ceil(n_times / steps_per_year)`` years).
        include_nugget:
            Add the truncation nugget ``epsilon``.
        start_year:
            Calendar year of the first step.
        chunk_size:
            Accepted only as ``None`` or ``steps_per_year``: a chunk is
            always one model year.

        Yields
        ------
        ClimateEnsemble
            Chunks of shape ``(B, steps_per_year, ntheta, nphi)`` (the
            last one shorter when ``n_times`` ends mid-year) with
            ``metadata["stream_offset"]`` giving the absolute index of the
            chunk's first step; ``forcing_annual`` and ``start_year``
            start at the chunk's year.
        """
        _check_chunk_size(chunk_size, self.steps_per_year)
        years = self._stream_under(
            rngs, n_times, [annual_forcing], include_nugget, start_year
        )
        # ``map`` keeps no reference to the one-entry tuple it unpacks; a
        # generator expression's loop variable would hold it, and the
        # year, across its yield.
        return map(itemgetter(0), years)

    def _stream_under(
        self,
        rngs: "list[np.random.Generator]",
        n_times: int,
        forcings: "list[np.ndarray]",
        include_nugget: bool,
        start_year: int,
    ) -> "Iterator[tuple[ClimateEnsemble, ...]]":
        """Yield each model year of ``len(rngs)`` streams under every forcing.

        A year's standardized fields are drawn once and restored once per
        entry of ``forcings``, so the tuple a year yields holds one
        :class:`ClimateEnsemble` per forcing, in order, each exactly the
        chunk :meth:`generate_stream_multi` yields under that forcing
        alone.  Every forcing must cover the years the record needs.
        """
        # Validate eagerly (this is a plain function returning a generator),
        # so bad arguments raise at the call site rather than at first next().
        rngs = list(rngs)
        if not rngs:
            raise ValueError("rngs must contain at least one generator")
        if len({id(rng) for rng in rngs}) != len(rngs):
            raise ValueError(
                "one Generator fills two slots of rngs, which would correlate "
                "those members: give each member its own generator"
            )
        if n_times < 1:
            raise ValueError("n_times must be positive")
        spy = self.steps_per_year
        n_years = -(-n_times // spy)
        forcings = [np.asarray(forcing, dtype=np.float64) for forcing in forcings]
        for forcing in forcings:
            if len(forcing) < n_years:
                # A mid-stream failure would leave consumers with a silently
                # truncated scenario, so the forcing horizon is checked up front.
                raise ValueError(
                    f"forcing covers {len(forcing)} years but {n_times} "
                    f"steps require {n_years}"
                )
        years = self._scaled_years(rngs, n_years, include_nugget)
        return self._wrap_years(years, n_times, forcings, include_nugget, start_year)

    def _scaled_years(
        self,
        rngs: "list[np.random.Generator]",
        n_years: int,
        include_nugget: bool,
        first_year: int = 0,
        start=None,
        passed=None,
    ) -> Iterator[np.ndarray]:
        """Years ``first_year .. n_years - 1`` of the year loop, each yielded
        as ``sigma * Z_t``: the scale is applied in place to the fresh array
        the year was drawn in, and ``m_t`` is left to the caller.  Given
        ``start``, the streams' ``_YearState`` at ``first_year``, the loop
        resumes from there; ``passed`` gets the states at the start of each
        next year.  ``map`` holds no yielded year."""
        years = self.spectral_model._years_from(
            rngs, n_years - first_year, self.steps_per_year, include_nugget, start, passed
        )
        return map(self._scale, years)

    def _scale(self, z: np.ndarray) -> np.ndarray:
        with span("generate.scale"):
            z *= self.scale.sigma
        return z

    def _wrap_years(
        self,
        years: Iterator[np.ndarray],
        n_times: int,
        forcings: "list[np.ndarray]",
        include_nugget: bool,
        start_year: int,
    ) -> "Iterator[tuple[ClimateEnsemble, ...]]":
        """Restore the trend on whole scaled years, then cut the record's steps.
        No name here (nor ``enumerate``'s cached tuple) holds a yielded year,
        so a paused stream keeps no reference to it."""
        spy = self.steps_per_year
        for year in range(-(-n_times // spy)):
            t_start = year * spy
            yield tuple(
                ClimateEnsemble(
                    data=data[:, :n_times - t_start],
                    grid=self.grid,
                    forcing_annual=forcing[year:],
                    steps_per_year=spy,
                    start_year=start_year + year,
                    metadata={
                        "source": "emulator",
                        "include_nugget": include_nugget,
                        "stream_offset": t_start,
                        "stream_total_times": n_times,
                    },
                )
                for data, forcing in zip(
                    self._restore(next(years), forcings, t_start), forcings
                )
            )

    def _restore(
        self, zs: np.ndarray, forcings: "list[np.ndarray]", t_start: int
    ) -> "list[np.ndarray]":
        """``sigma * Z_t + m_t`` under each forcing, from a year of
        :meth:`_scaled_years`: a fresh ``zs + m_t`` per forcing but the last,
        which is restored in place.  These are the IEEE operations of
        ``m_t + z * sigma`` (addition commutes), so every forcing's bits are
        those of a stream under it alone."""
        with span("generate.restore", t_start=t_start, n_forcings=len(forcings)):
            restored = [zs + self._mean(forcing, t_start) for forcing in forcings[:-1]]
            zs += self._mean(forcings[-1], t_start)
        return restored + [zs]

    def _mean(self, forcing: np.ndarray, t_start: int) -> np.ndarray:
        """``m_t`` of the model year starting at step ``t_start``."""
        return self.trend_model.predict(
            self.steps_per_year, forcing, self.trend_fit, t_start=t_start
        )
