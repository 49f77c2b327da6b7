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

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.blas import dsyrk

from typing import Iterator

from repro.core.var import DiagonalVAR
from repro.linalg.cholesky import CholeskyResult, MixedPrecisionCholesky
from repro.linalg.flops import cholesky_flops
from repro.obs import span
from repro.sht.grid import Grid
from repro.sht.plancache import get_plan
from repro.sht.realform import real_from_complex

__all__ = ["SpectralStochasticModel", "validate_batch_size"]


def validate_batch_size(batch_size: "int | None") -> "int | None":
    """Validate an SHT working-set cap: ``None`` or a positive integer.

    Shared by every ``batch_size``-accepting fit entry point (the
    spectral fit and :meth:`ClimateEmulator.fit
    <repro.core.emulator.ClimateEmulator.fit>`), so the rule cannot
    drift between them.  Non-integral values are rejected here rather
    than failing later inside a slice.
    """
    if batch_size is None:
        return None
    if isinstance(batch_size, bool) or not isinstance(
        batch_size, (int, np.integer)
    ):
        raise ValueError(
            f"batch_size must be a positive integer or None, got {batch_size!r}"
        )
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return int(batch_size)


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
        covariance.  ``precision_variant`` is resolved by name through
        :data:`repro.linalg.policies.CHOLESKY_VARIANTS`.
    sht_method:
        Name of the SHT backend, resolved through
        :data:`repro.sht.backends.SHT_BACKENDS` (``"fast"`` or
        ``"direct"``; any registered name works).
    """

    lmax: int
    grid: Grid
    var_order: int = 2
    tile_size: int = 32
    precision_variant: str = "DP"
    covariance_jitter: float = 1e-6
    sht_method: str = "fast"

    plan: object = field(init=False, repr=False)
    var: DiagonalVAR = field(init=False, repr=False)
    cholesky: CholeskyResult | None = field(init=False, default=None, repr=False)
    nugget_std: np.ndarray | None = field(init=False, default=None, repr=False)
    initial_state: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        # Plans are pure precomputation keyed on (backend, lmax, grid), so
        # every model in the process shares one set of Wigner/quadrature
        # tables instead of rebuilding O(L^3) values per instance.
        self.plan = get_plan(self.sht_method, lmax=self.lmax, grid=self.grid)
        self.var = DiagonalVAR(order=self.var_order)

    # ------------------------------------------------------------------ #
    # Forward modelling of the training residuals
    # ------------------------------------------------------------------ #
    def spectral_series(
        self, standardized: np.ndarray, batch_size: int | None = None
    ) -> np.ndarray:
        """Real spectral coefficient series ``f_t`` for each ensemble member.

        Parameters
        ----------
        standardized:
            Standardised residual fields of shape ``(R, T, ntheta, nphi)``.
        batch_size:
            Cap on ensemble members analysed per forward-SHT pass (all at
            once when ``None``).  A memory knob only: the forward
            transform is independent per leading slice, so the result is
            bit-identical for every value.

        Returns
        -------
        numpy.ndarray
            Real array of shape ``(R, T, L**2)``.
        """
        standardized = np.asarray(standardized, dtype=np.float64)
        if standardized.ndim == 3:
            standardized = standardized[None, ...]
        batch_size = validate_batch_size(batch_size)
        n_real = standardized.shape[0]
        if batch_size is None or batch_size >= n_real:
            coeffs = self.plan.forward(standardized)
            return real_from_complex(coeffs)
        spectral = np.empty(
            standardized.shape[:2] + (self.plan.n_coeffs,), dtype=np.float64
        )
        for start in range(0, n_real, batch_size):
            block = standardized[start:start + batch_size]
            spectral[start:start + batch_size] = real_from_complex(
                self.plan.forward(block)
            )
        return spectral

    def truncation_residual(
        self,
        standardized: np.ndarray,
        spectral: np.ndarray,
        batch_size: int | None = None,
    ) -> np.ndarray:
        """Grid-space residual unexplained by the band-limited expansion.

        ``batch_size`` caps the ensemble members reconstructed per
        inverse-SHT pass (all at once when ``None``); the residual is
        bit-identical for every value.
        """
        standardized = np.asarray(standardized, dtype=np.float64)
        if standardized.ndim == 3:
            standardized = standardized[None, ...]
        reconstructed = self._synthesize(
            np.asarray(spectral, dtype=np.float64), batch_size
        )
        return standardized - reconstructed

    def _synthesize(self, series: np.ndarray, batch_size: int | None) -> np.ndarray:
        """Inverse-transform a real coefficient series, blockwise over axis 0.

        ``series`` has shape ``(R, ..., L**2)``; the inverse SHT is
        applied in axis-0 blocks of at most ``batch_size`` (all at once
        when ``None``), bounding the synthesis working set without
        changing the result: the transform is independent per leading
        slice, so the blocked output is bit-identical to the single-pass
        output.
        """
        batch_size = validate_batch_size(batch_size)
        n_real = series.shape[0]
        if batch_size is None or batch_size >= n_real:
            return self.plan.inverse_realform(series)
        fields = np.empty(series.shape[:-1] + self.grid.shape, dtype=np.float64)
        for start in range(0, n_real, batch_size):
            block = series[start:start + batch_size]
            fields[start:start + batch_size] = self.plan.inverse_realform(block)
        return fields

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(
        self, standardized: np.ndarray, batch_size: int | None = None
    ) -> "SpectralStochasticModel":
        """Fit the VAR, innovation covariance, Cholesky factor and nugget.

        ``U`` is one SYRK into a ``k x k`` buffer that the factorisation
        overwrites and the fit then drops (with the row panels, the peak).

        ``batch_size`` caps how many ensemble members each SHT pass (the
        forward analysis of the residuals and the inverse reconstruction
        behind the nugget) materialises at once — the ``O(L^3)`` working
        set of the fit hot path.  A memory/throughput knob only: both
        transforms are independent per leading slice, so the fitted
        state is bit-identical for every ``batch_size``.  Unset, the
        analysis runs in one pass and the reconstruction one member per
        pass: it only feeds a variance, runs beside the factor, and is no
        slower blocked.
        """
        standardized = np.asarray(standardized, dtype=np.float64)
        if standardized.ndim == 3:
            standardized = standardized[None, ...]
        batch_size = validate_batch_size(batch_size)
        n_ens, n_times = standardized.shape[:2]
        if n_times <= self.var_order + 1:
            raise ValueError("record too short for the requested VAR order")

        with span(
            "fit.analysis", lmax=self.lmax, n_ensemble=n_ens, n_times=n_times
        ):
            spectral = self.spectral_series(standardized, batch_size)  # (R, T, K)
        with span("fit.var", var_order=self.var_order):
            self.var.fit(spectral)
            innovations = self.var.innovations(spectral)       # (R, T-P, K)

        # Empirical innovation covariance (Eq. 9), pooled over ensembles.
        flat = innovations.reshape(-1, innovations.shape[-1])
        n_samples, k = flat.shape
        with span("fit.covariance", order=k, n_samples=n_samples, flops=n_samples * k * (k + 1)):
            # SYRK (half a GEMM's flops): the Fortran-ordered upper triangle
            # is the lower triangle of the C-ordered transpose.
            work = dsyrk(1.0 / max(n_samples, 1), flat.T, lower=0).T
            # "minor perturbation along the diagonal ... to ensure it
            # remains positive definite" (Section III-A.3).
            ridge = self.covariance_jitter * float(np.mean(np.diag(work)) or 1.0)
            work[np.diag_indices(k)] += ridge

        solver = MixedPrecisionCholesky(
            tile_size=self.tile_size,
            variant=self.precision_variant,
            jitter=self.covariance_jitter,
        )
        with span(
            "fit.cholesky",
            order=k,
            variant=self.precision_variant,
            flops=cholesky_flops(k),
        ):
            try:
                self.cholesky = solver.factorize_in_place(work)
            except LinAlgError as error:
                tiles = solver.policy.precision_map(-(-k // self.tile_size)).values()
                raise LinAlgError(
                    f"the {self.precision_variant} factorisation of the k = {k} innovation "
                    f"covariance from {n_samples} samples failed with covariance_jitter="
                    f"{self.covariance_jitter:g}: {error}; the ridge must outweigh the tiles' "
                    f"rounding, so raise covariance_jitter to {max(p.epsilon for p in tiles):.1e} "
                    "(the variant's lowest-precision unit roundoff) or more"
                ) from error
        del work  # the factor lives in its row panels now

        with span("fit.truncation", batch_size=batch_size or 1):
            truncation = self.truncation_residual(standardized, spectral, batch_size or 1)
            self.nugget_std = truncation.std(axis=(0, 1), ddof=1)
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
        n_times: int,
        chunk_size: int,
        include_nugget: bool = True,
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Generate standardised fields ``Z_t`` (Section III-B), year-chunked.

        The one generation path: ``B = len(rngs)`` realization streams
        advance together, at most ``chunk_size`` time steps materialised
        at once, with the VAR history carried across chunks so the
        concatenated stream follows the same AR(P) recursion as one
        monolithic draw.  Per chunk, stream ``b`` draws *only* from
        ``rngs[b]`` — its innovation normals, then (after every stream's
        innovations) its nugget normals — while the data-independent work
        runs once on the stacked block: the factor multiply on the ``(B *
        nt, L**2)`` normals (:meth:`CholeskyResult.correlate
        <repro.linalg.cholesky.CholeskyResult.correlate>`), the VAR
        recursion, and the inverse SHT entered from the real form.  Each
        computes a row independently of the rows stacked with it, so
        member ``b`` is bit-identical to the batch-of-one stream under
        ``rngs[b]`` whatever else shares the batch.  Passing one generator
        ``B`` times (``[rng] * B``) is the shared-generator case: numpy
        fills a wide draw sequentially, so the ``B`` consecutive draws are
        the bits of one ``(B, ...)`` draw.

        Parameters
        ----------
        rngs:
            One generator per stream (``B = len(rngs)``).
        n_times:
            Total time steps of the record.
        chunk_size:
            Time steps per yielded chunk.
        include_nugget:
            Add the truncation nugget ``epsilon``.

        Yields
        ------
        tuple[int, numpy.ndarray]
            ``(t_start, fields)`` with ``fields`` of dtype ``float64`` and
            shape ``(B, <=chunk_size, ntheta, nphi)``.
        """
        if self.cholesky is None or self.nugget_std is None:
            raise RuntimeError("fit() must be called first")
        rngs = list(rngs)
        if not rngs:
            raise ValueError("rngs must contain at least one generator")
        if n_times < 1:
            raise ValueError("n_times must be positive")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        n_batch = len(rngs)
        p = self.var_order
        k = self.cholesky.n
        if p > 0:
            init = (
                np.asarray(self.initial_state, dtype=np.float64)
                if self.initial_state is not None
                else np.zeros((p, k))
            )
            history = np.broadcast_to(init[-p:], (n_batch, p, k)).copy()
        else:
            history = None
        for t_start in range(0, n_times, chunk_size):
            nt = min(chunk_size, n_times - t_start)
            # Per-stream draws, stacked: stream b's generator sees the same
            # request sequence as in a batch of one.
            z = np.concatenate([rng.standard_normal((nt, k)) for rng in rngs])
            xi = self.cholesky.correlate(z).reshape(n_batch, nt, k)
            series = self.var.simulate(xi, initial=history)
            if p > 0:
                history = np.concatenate([history, series], axis=1)[:, -p:, :]
            fields = self.plan.inverse_realform(series)
            if include_nugget:
                for b, rng in enumerate(rngs):
                    noise = rng.standard_normal((1, nt) + self.grid.shape)
                    fields[b] = fields[b] + self.nugget_std * noise[0]
            yield t_start, fields

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
        model.var = DiagonalVAR.from_state(state["var"])
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
