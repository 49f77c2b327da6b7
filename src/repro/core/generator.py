"""Emulation generation (paper Section III-B).

Given a fitted emulator, new realisations are produced by

1. drawing spectral innovations ``xi_t ~ N(0, U)`` with the Cholesky factor
   ``V`` (``O(L^2 T)`` once the factor exists),
2. rolling the diagonal VAR forward to obtain the coefficient series
   ``f_t``,
3. inverse spherical harmonic transform to the grid (``O(L^3 T)``),
4. adding the truncation nugget ``epsilon_t ~ N(0, v^2)``,
5. re-applying the scale field ``sigma`` and the mean trend ``m_t``
   (Eq. 1), optionally under a different forcing scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.scale import ScaleField
from repro.core.spectral_model import SpectralStochasticModel
from repro.core.trend import MeanTrendModel, TrendFit
from repro.data.ensemble import ClimateEnsemble
from repro.sht.grid import Grid

__all__ = ["EmulationGenerator"]


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

    def generate(
        self,
        n_realizations: int,
        n_times: int,
        annual_forcing: np.ndarray,
        rng: np.random.Generator | None = None,
        include_nugget: bool = True,
        start_year: int = 1940,
    ) -> ClimateEnsemble:
        """Produce an ensemble of emulated fields.

        The single-chunk case of :meth:`generate_stream`
        (``chunk_size = n_times``), so the monolithic and streaming
        outputs cannot drift apart.

        Parameters
        ----------
        n_realizations:
            Number of emulation members to draw.
        n_times:
            Number of time steps to emulate.
        annual_forcing:
            Annual forcing trajectory driving the mean trend (may be a new
            scenario; must cover ``ceil(n_times / steps_per_year)`` years).
        rng:
            Random generator (a fresh default generator when omitted).
        include_nugget:
            Add the truncation nugget ``epsilon``.

        Returns
        -------
        ClimateEnsemble
            The emulated ensemble, marked ``metadata["source"] = "emulator"``.
        """
        annual_forcing = np.asarray(annual_forcing, dtype=np.float64)
        chunk = next(iter(self.generate_stream(
            n_realizations=n_realizations,
            n_times=n_times,
            annual_forcing=annual_forcing,
            rng=rng,
            include_nugget=include_nugget,
            start_year=start_year,
            chunk_size=n_times,
        )))
        return ClimateEnsemble(
            data=chunk.data,
            grid=self.grid,
            forcing_annual=annual_forcing,
            steps_per_year=self.steps_per_year,
            start_year=start_year,
            metadata={"source": "emulator", "include_nugget": include_nugget},
        )

    def generate_stream(
        self,
        n_realizations: int,
        n_times: int,
        annual_forcing: np.ndarray,
        rng: np.random.Generator | None = None,
        include_nugget: bool = True,
        start_year: int = 1940,
        chunk_size: int | None = None,
    ) -> Iterator[ClimateEnsemble]:
        """Stream ``n_realizations`` members drawn from one shared ``rng``.

        :meth:`generate_stream_multi` with the same generator in every
        slot: numpy fills a wide draw sequentially, so the members'
        consecutive draws are the bits of one ``(n_realizations, ...)``
        draw per chunk.  See :meth:`generate_stream_multi` for the
        chunk layout and metadata.
        """
        if n_realizations < 1:
            raise ValueError("n_realizations must be positive")
        rng = rng or np.random.default_rng()
        return self.generate_stream_multi(
            [rng] * n_realizations,
            n_times=n_times,
            annual_forcing=annual_forcing,
            include_nugget=include_nugget,
            start_year=start_year,
            chunk_size=chunk_size,
        )

    def generate_stream_multi(
        self,
        rngs: "list[np.random.Generator]",
        n_times: int,
        annual_forcing: np.ndarray,
        include_nugget: bool = True,
        start_year: int = 1940,
        chunk_size: int | None = None,
    ) -> Iterator[ClimateEnsemble]:
        """Yield ``B = len(rngs)`` realisations as a stream of time chunks.

        The one generation path, bounded in memory for long scenario
        runs: at most ``chunk_size`` time steps are materialised at once,
        the VAR history is carried across chunks, and the mean trend is
        evaluated at the absolute time offset of each chunk, so the
        concatenated chunks form one coherent realisation per member.
        Member ``b`` draws *only* from ``rngs[b]``, so it is
        bit-identical to the batch-of-one stream under ``rngs[b]``,
        while the VAR recursion, the inverse SHT and the trend/scale
        restore run once on the stacked batch (see
        :meth:`SpectralStochasticModel.generate_standardized_stream_multi
        <repro.core.spectral_model.SpectralStochasticModel.generate_standardized_stream_multi>`).
        All members share one ``annual_forcing`` (and hence one mean
        trend), which is why :func:`repro.run_campaign` only batches
        realizations of the same scenario together.

        Parameters
        ----------
        rngs:
            One generator per member.
        n_times / annual_forcing / include_nugget / start_year:
            As in :meth:`generate`.
        chunk_size:
            Time steps per yielded chunk (one model year when omitted).

        Yields
        ------
        ClimateEnsemble
            Chunks of shape ``(B, <=chunk_size, ntheta, nphi)`` with
            ``metadata["stream_offset"]`` giving the absolute index of
            the chunk's first time step.  Each chunk's ``forcing_annual``
            is re-based to the chunk's first calendar year, so
            ``forcing_per_step()`` on a chunk is exact whenever chunks
            align with year boundaries (always true for the default
            one-year ``chunk_size``); ``metadata["stream_phase"]`` records
            the intra-year offset otherwise.
        """
        # Validate eagerly (this is a plain function returning a generator),
        # so bad arguments raise at the call site rather than at first next().
        rngs = list(rngs)
        if not rngs:
            raise ValueError("rngs must contain at least one generator")
        if n_times < 1:
            raise ValueError("n_times must be positive")
        if chunk_size is None:
            chunk_size = self.steps_per_year
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        annual_forcing = np.asarray(annual_forcing, dtype=np.float64)
        needed_years = -(-n_times // self.steps_per_year)
        if len(annual_forcing) < needed_years:
            # A mid-stream failure would leave consumers with a silently
            # truncated scenario, so the forcing horizon is checked up front.
            raise ValueError(
                f"forcing covers {len(annual_forcing)} years but {n_times} "
                f"steps require {needed_years}"
            )
        stream = self.spectral_model.generate_standardized_stream_multi(
            rngs, n_times, chunk_size, include_nugget=include_nugget
        )
        return self._wrap_chunks(
            stream, n_times, annual_forcing, include_nugget, start_year
        )

    def _wrap_chunks(
        self,
        stream: Iterator[tuple[int, np.ndarray]],
        n_times: int,
        annual_forcing: np.ndarray,
        include_nugget: bool,
        start_year: int,
    ) -> Iterator[ClimateEnsemble]:
        """Restore trend and scale, and wrap raw chunks as ensembles."""
        for t_start, z in stream:
            nt = z.shape[1]
            mean = self.trend_model.predict(
                nt, annual_forcing, self.trend_fit, t_start=t_start
            )
            fields = mean[None, ...] + self.scale.unstandardize(z)
            year_offset = t_start // self.steps_per_year
            yield ClimateEnsemble(
                data=fields,
                grid=self.grid,
                forcing_annual=annual_forcing[year_offset:],
                steps_per_year=self.steps_per_year,
                start_year=start_year + year_offset,
                metadata={
                    "source": "emulator",
                    "include_nugget": include_nugget,
                    "stream_offset": t_start,
                    "stream_phase": t_start % self.steps_per_year,
                    "stream_total_times": n_times,
                },
            )
