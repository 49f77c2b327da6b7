"""The spectral stochastic model (paper Section III-A.1 and III-A.3).

The standardised residual fields are transformed to the spherical-harmonic
domain, packed into the real coefficient vector ``f_t in R^{L^2}``, fitted
with a diagonal VAR(P), and the VAR innovations' empirical covariance
``U`` (Eq. 9) is factorised with the mixed-precision tile Cholesky.  The
part of the field the band-limited expansion cannot represent is captured
by the per-location nugget variance ``v^2(theta, phi)``, which re-enters
as white noise when emulations are generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np
from scipy.linalg import LinAlgError

from repro.core.var import _DiagonalVAR
from repro.linalg.cholesky import _ROW_FLOOR, CholeskyResult, MixedPrecisionCholesky
from repro.linalg.flops import cholesky_flops
from repro.linalg.policies import tile_codes
from repro.linalg.precision import _PRECISIONS
from repro.obs import span
from repro.sht.grid import Grid
from repro.sht.plancache import get_plan

__all__ = ["SpectralStochasticModel"]


class _YearState(NamedTuple):
    """One member's stream at the start of a model year: its bit generator's
    state and its ``(P, k)`` VAR history (``None`` if ``P = 0``).  A year
    depends on the years before it only through these, and neither sees the
    forcing, so they resume the stream bit for bit under any scenario."""

    rng_state: dict
    history: "np.ndarray | None"

    @property
    def nbytes(self) -> int:  # the history plus the generator's two 128-bit words
        return 32 + (0 if self.history is None else self.history.nbytes)


@dataclass
class SpectralStochasticModel:
    """Spectral model of the standardised stochastic component.

    Parameters
    ----------
    lmax:
        Spherical-harmonic band-limit ``L``.
    grid:
        Spatial grid of the training data.
    var_order:
        Diagonal VAR order ``P``.
    tile_size / precision_variant / covariance_jitter:
        Parameters of the mixed-precision Cholesky of the innovation
        covariance.  ``precision_variant`` names one of
        :data:`repro.linalg.policies.VARIANTS`.
    sht_method:
        ``"fast"``, the one transform (:func:`repro.sht.plancache.get_plan`
        refuses any other name).
    """

    lmax: int
    grid: Grid
    var_order: int = 2
    tile_size: int = 32
    precision_variant: str = "DP"
    covariance_jitter: float = 1e-6
    sht_method: str = "fast"

    plan: object = field(init=False, repr=False)
    var: _DiagonalVAR = field(init=False, repr=False)
    cholesky: CholeskyResult | None = field(init=False, default=None, repr=False)
    nugget_std: np.ndarray | None = field(init=False, default=None, repr=False)
    initial_state: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        # Plans are pure precomputation keyed on (lmax, grid), so
        # every model in the process shares one set of Wigner/quadrature
        # tables instead of rebuilding O(L^3) values per instance.
        self.plan = get_plan(self.sht_method, lmax=self.lmax, grid=self.grid)
        self.var = _DiagonalVAR(order=self.var_order)

    # ------------------------------------------------------------------ #
    # Forward modelling of the training residuals
    # ------------------------------------------------------------------ #
    def spectral_series(self, standardized: np.ndarray) -> np.ndarray:
        """Real spectral coefficient series ``f_t`` for each ensemble member.

        One forward-SHT pass over every member, straight to the real form
        (the transform itself works in blocks of slices).

        Parameters
        ----------
        standardized:
            Standardised residual fields of shape ``(R, T, ntheta, nphi)``.

        Returns
        -------
        numpy.ndarray
            Real array of shape ``(R, T, L**2)``.
        """
        standardized = np.asarray(standardized, dtype=np.float64)
        if standardized.ndim == 3:
            standardized = standardized[None, ...]
        return self.plan.forward_realform(standardized)

    def truncation_residual(
        self, standardized: np.ndarray, spectral: np.ndarray
    ) -> np.ndarray:
        """Grid-space residual unexplained by the band-limited expansion.

        The reconstruction runs one ensemble member per inverse-SHT pass:
        it only feeds a variance, so it keeps one member's fields resident
        rather than the whole ensemble's.
        The transform is independent per slice, so the result equals a
        one-pass reconstruction bit for bit.
        """
        standardized = np.asarray(standardized, dtype=np.float64)
        if standardized.ndim == 3:
            standardized = standardized[None, ...]
        spectral = np.asarray(spectral, dtype=np.float64).reshape(
            standardized.shape[:2] + (-1,)
        )
        residual = np.empty_like(standardized)
        for member in range(len(residual)):
            residual[member] = standardized[member] - self.plan.inverse_realform(
                spectral[member:member + 1]
            )[0]
        return residual

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, standardized: np.ndarray) -> "SpectralStochasticModel":
        """Fit the VAR, innovation covariance, Cholesky factor and nugget.

        ``U`` is filled panel by panel into the factor's float64 row panels,
        which the factorisation overwrites: no ``k x k`` array is formed.
        """
        standardized = np.asarray(standardized, dtype=np.float64)
        if standardized.ndim == 3:
            standardized = standardized[None, ...]
        n_ens, n_times = standardized.shape[:2]
        if n_times <= self.var_order + 1:
            raise ValueError("record too short for the requested VAR order")

        with span(
            "fit.analysis", lmax=self.lmax, n_ensemble=n_ens, n_times=n_times
        ):
            spectral = self.spectral_series(standardized)  # (R, T, K)
        # numpy's GEMMs before scipy's: the two OpenBLAS pools then never
        # hand the cores back and forth.
        with span("fit.truncation"):
            self.nugget_std = self.truncation_residual(standardized, spectral).std(
                axis=(0, 1), ddof=1
            )
        with span("fit.var", var_order=self.var_order):
            self.var.fit(spectral)
            innovations = self.var.innovations(spectral)       # (R, T-P, K)

        # Empirical innovation covariance (Eq. 9), pooled over ensembles.
        flat = innovations.reshape(-1, innovations.shape[-1])
        n_samples, k = flat.shape
        solver = MixedPrecisionCholesky(
            tile_size=self.tile_size,
            variant=self.precision_variant,
            jitter=self.covariance_jitter,
        )
        with span("fit.covariance", order=k, n_samples=n_samples, flops=n_samples * k * (k + 1)):
            # "minor perturbation along the diagonal ... to ensure it
            # remains positive definite" (Section III-A.3).
            work = solver.covariance_panels(flat, ridge=self.covariance_jitter)
        del innovations, flat
        with span(
            "fit.cholesky",
            order=k,
            variant=self.precision_variant,
            flops=cholesky_flops(k),
        ):
            try:
                self.cholesky = solver.factorize_panels(work)
            except LinAlgError as error:
                codes = tile_codes(self.precision_variant, -(-k // self.tile_size))
                raise LinAlgError(
                    f"the {self.precision_variant} factorisation of the k = {k} innovation "
                    f"covariance from {n_samples} samples failed with covariance_jitter="
                    f"{self.covariance_jitter:g}: {error}; the ridge must outweigh the tiles' "
                    f"rounding, so raise covariance_jitter to {_PRECISIONS[codes.max()].epsilon:.1e} "
                    "(the variant's lowest-precision unit roundoff) or more"
                ) from error
        self.initial_state = spectral[:, -max(self.var_order, 1):, :].mean(axis=0)
        return self

    # ------------------------------------------------------------------ #
    # Emulation support
    # ------------------------------------------------------------------ #
    def sample_innovations(
        self, rng: np.random.Generator, n_realizations: int, n_times: int
    ) -> np.ndarray:
        """Draw ``xi_t ~ N(0, U)`` through the mixed-precision factor's panels."""
        if self.cholesky is None:
            raise RuntimeError("fit() must be called first")
        return self.cholesky.sample(rng, (n_realizations, n_times))

    def generate_standardized_stream_multi(
        self,
        rngs: "list[np.random.Generator]",
        n_years: int,
        steps_per_year: int,
        include_nugget: bool = True,
    ) -> Iterator[np.ndarray]:
        """Generate standardised fields ``Z_t`` (Section III-B), one model year at a time.

        The one draw schedule: ``B = len(rngs)`` realization streams
        advance together one year of ``steps_per_year`` steps per
        iteration, with the VAR history carried across years so the
        concatenated years follow one AR(P) recursion.  Each year, stream
        ``b`` draws *only* from ``rngs[b]``: that year's innovation
        normals, then that year's nugget normals.  The data-independent
        work runs once on the stacked block: the factor multiply on the
        ``(B * steps_per_year, L**2)`` normals
        (:meth:`CholeskyResult.correlate
        <repro.linalg.cholesky.CholeskyResult.correlate>`), the VAR
        recursion, and the inverse SHT entered from the real form.  Each
        computes a row independently of the rows stacked with it, so
        member ``b`` is bit-identical to the batch-of-one stream under
        ``rngs[b]`` whatever else shares the batch.

        The normals and the nugget go into two scratch buffers reused every
        year; a paused stream holds them and its VAR history, not a year.

        Parameters
        ----------
        rngs:
            One generator per stream (``B = len(rngs)``).
        n_years / steps_per_year:
            Model years to draw, and time steps per year.
        include_nugget:
            Add the truncation nugget ``epsilon``.

        Yields
        ------
        numpy.ndarray
            ``float64`` fields of shape ``(B, steps_per_year, ntheta,
            nphi)``, one array per year, ``n_years`` in all.
        """
        return self._years_from(rngs, n_years, steps_per_year, include_nugget)

    def _years_from(
        self, rngs, n_years, steps_per_year, include_nugget, start=None, passed=None
    ) -> Iterator[np.ndarray]:
        """The year loop, from the initial state or from ``start``, one
        :class:`_YearState` per stream (the rngs are set to its states); each
        year appends the streams' states at the start of the next to the list
        ``passed``, if one is given."""
        if self.cholesky is None or self.nugget_std is None:
            raise RuntimeError("fit() must be called first")
        rngs = list(rngs)
        if not rngs:
            raise ValueError("rngs must contain at least one generator")
        if n_years < 1:
            raise ValueError("n_years must be positive")
        n_batch = len(rngs)
        nt = int(steps_per_year)
        p = self.var_order
        k = self.cholesky.n
        if start is None:  # year 0: the fitted initial state
            init = np.zeros((p, k)) if self.initial_state is None else self.initial_state
            start = [
                _YearState(rng.bit_generator.state, init[-p:] if p else None) for rng in rngs
            ]
        for rng, state in zip(rngs, start, strict=True):
            rng.bit_generator.state = state.rng_state
        history = None if p == 0 else np.array([s.history for s in start], dtype=np.float64)
        # Zero rows up to the factor multiply's floor, so it never pads a copy.
        z = np.zeros((max(n_batch * nt, _ROW_FLOOR), k))
        noise = np.empty((nt,) + self.grid.shape) if include_nugget else None
        for _ in range(n_years):
            yield self._draw_year(rngs, z, nt, noise, history, passed)

    def _draw_year(self, rngs, z, nt, noise, history, passed) -> np.ndarray:
        """One year in a fresh array; normals and nugget go into the scratch ``z``
        (rows past ``len(rngs) * nt`` stay zero) and ``noise``, ``history``
        (``None`` if ``P = 0``) advances in place, and ``passed`` (if a list)
        gets the streams' states at the start of the next year."""
        rows = len(rngs) * nt
        # Per-stream draws, stacked: stream b's generator sees the same
        # request sequence as in a batch of one.
        with span("generate.draw", rows=rows):
            for rng, block in zip(rngs, np.split(z[:rows], len(rngs))):
                rng.standard_normal(out=block)
        with span("generate.correlate", rows=rows):
            xi = self.cholesky.correlate(z)[:rows].reshape(len(rngs), nt, z.shape[1])
        with span("generate.var", var_order=self.var_order):
            series = self.var.simulate(xi, initial=history)
            if history is not None:
                p = self.var_order
                history[...] = np.concatenate((history, series[:, -p:]), axis=1)[:, -p:]
        fields = self.plan.inverse_realform(series)
        if noise is not None:
            with span("generate.nugget"):
                for b, rng in enumerate(rngs):
                    rng.standard_normal(out=noise)
                    noise *= self.nugget_std
                    fields[b] += noise
        if passed is not None:
            passed.append([
                _YearState(rng.bit_generator.state, None if history is None else history[b].copy())
                for b, rng in enumerate(rngs)
            ])
        return fields

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Arrays and metadata from which :meth:`from_state` rebuilds the model."""
        if self.cholesky is None or self.nugget_std is None:
            raise RuntimeError("fit() must be called before state_dict()")
        return {
            "lmax": int(self.lmax),
            "grid": {"ntheta": int(self.grid.ntheta), "nphi": int(self.grid.nphi)},
            "var_order": int(self.var_order),
            "tile_size": int(self.tile_size),
            "precision_variant": str(self.precision_variant),
            "covariance_jitter": float(self.covariance_jitter),
            "sht_method": str(self.sht_method),
            "nugget_std": np.asarray(self.nugget_std, dtype=np.float64),
            "initial_state": (
                np.asarray(self.initial_state, dtype=np.float64)
                if self.initial_state is not None
                else None
            ),
            "var": self.var.state_dict(),
            "cholesky": self.cholesky.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SpectralStochasticModel":
        """Rebuild a fitted model from :meth:`state_dict` output."""
        grid = Grid(ntheta=int(state["grid"]["ntheta"]), nphi=int(state["grid"]["nphi"]))
        model = cls(
            lmax=int(state["lmax"]),
            grid=grid,
            var_order=int(state["var_order"]),
            tile_size=int(state["tile_size"]),
            precision_variant=str(state["precision_variant"]),
            covariance_jitter=float(state["covariance_jitter"]),
            sht_method=str(state.get("sht_method", "fast")),
        )
        model.var = _DiagonalVAR.from_state(state["var"])
        model.nugget_std = np.asarray(state["nugget_std"], dtype=np.float64)
        initial_state = state.get("initial_state")
        if initial_state is not None:
            model.initial_state = np.asarray(initial_state, dtype=np.float64)
        model.cholesky = CholeskyResult.from_state(state["cholesky"])
        return model

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def parameter_count(self) -> int:
        """Number of stored model parameters (drives the storage savings)."""
        if self.cholesky is None or self.nugget_std is None:
            raise RuntimeError("fit() must be called first")
        k = self.cholesky.n
        cov_params = k * (k + 1) // 2
        var_params = self.var_order * k
        nugget_params = int(np.prod(self.nugget_std.shape))
        return cov_params + var_params + nugget_params
