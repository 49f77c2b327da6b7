"""The distributed-lag mean-trend model (Eq. 2).

Every spatial location gets its own linear model

``m_t = beta_0 + beta_1 x_{ceil(t/tau)} + beta_2 d_t(rho)
        + sum_k a_k cos(2 pi t k / tau) + b_k sin(2 pi t k / tau)``

where ``x`` is the annual radiative forcing, ``d_t(rho)`` is the
exponentially weighted history ``(1 - rho) sum_s rho^{s-1} x_{year - s}``
and the harmonic terms capture the periodic (seasonal / diurnal) cycle.

Because the regressors depend only on time (not on location), the fit for
*all* locations reduces to one shared design matrix per candidate ``rho``,
its SVD and two products over all locations (``lstsq``'s minimum-norm
solution); the decay ``rho`` itself is profiled per location over a small
grid, which is the "1D MLE per location with O(T) cost" strategy described
in the paper.  Under the Gaussian residual model, minimising the residual
sum of squares is exactly the profile maximum-likelihood estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["TrendFit", "MeanTrendModel", "distributed_lag_series"]


def distributed_lag_series(annual_forcing: np.ndarray, rho: float) -> np.ndarray:
    """Exponentially weighted forcing history ``d_y(rho)`` per year.

    Uses the recursion ``d_y = (1 - rho) x_{y-1} + rho d_{y-1}`` with
    ``d_0 = x_0`` (i.e. an infinite pre-industrial history pinned at the
    first forcing value), which sums the paper's infinite distributed-lag
    series exactly.
    """
    x = np.asarray(annual_forcing, dtype=np.float64)
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    d = np.empty_like(x)
    d[0] = x[0]
    for y in range(1, len(x)):
        d[y] = (1.0 - rho) * x[y - 1] + rho * d[y - 1]
    return d


@dataclass
class TrendFit:
    """Fitted per-location trend parameters.

    All arrays have the spatial grid shape.  ``coefficients`` stacks the
    regression coefficients along the last axis in the order of
    :meth:`MeanTrendModel.design_matrix`.
    """

    coefficients: np.ndarray
    rho: np.ndarray
    residual_variance: np.ndarray
    regressor_names: list[str]

    @cached_property
    def rho_groups(self) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """Distinct ``rho`` values, each one's ``coefficients[rho == value]``
        block, and the permutation back from the concatenated blocks to
        flat location order; built once per fit."""
        rho = self.rho.reshape(-1)
        order = np.argsort(rho, kind="stable")
        values, starts = np.unique(rho[order], return_index=True)
        coeffs = self.coefficients.reshape(rho.size, -1)
        return values, [coeffs[index] for index in np.split(order, starts[1:])], np.argsort(order)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Arrays and metadata from which :meth:`from_state` rebuilds the fit."""
        return {
            "coefficients": np.asarray(self.coefficients, dtype=np.float64),
            "rho": np.asarray(self.rho, dtype=np.float64),
            "residual_variance": np.asarray(self.residual_variance, dtype=np.float64),
            "regressor_names": list(self.regressor_names),
        }

    @classmethod
    def from_state(cls, state: dict) -> "TrendFit":
        """Rebuild a fit from :meth:`state_dict` output."""
        return cls(
            coefficients=np.asarray(state["coefficients"], dtype=np.float64),
            rho=np.asarray(state["rho"], dtype=np.float64),
            residual_variance=np.asarray(state["residual_variance"], dtype=np.float64),
            regressor_names=[str(n) for n in state["regressor_names"]],
        )


class MeanTrendModel:
    """Fit and evaluate the mean-trend model for every grid point.

    Parameters
    ----------
    steps_per_year:
        Temporal resolution ``tau`` (12, 365, 8760, or a synthetic value).
    n_harmonics:
        Number of periodic harmonics ``K``.
    rho_grid:
        Candidate distributed-lag decays profiled per location.
    use_distributed_lag:
        Include the ``beta_2 d_t(rho)`` regressor.
    """

    def __init__(
        self,
        steps_per_year: int,
        n_harmonics: int = 2,
        rho_grid: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
        use_distributed_lag: bool = True,
    ) -> None:
        if steps_per_year < 1:
            raise ValueError("steps_per_year must be positive")
        self.steps_per_year = steps_per_year
        self.n_harmonics = n_harmonics
        self.rho_grid = tuple(rho_grid)
        self.use_distributed_lag = use_distributed_lag
        self.fit_result: TrendFit | None = None

    # ------------------------------------------------------------------ #
    # Design matrix
    # ------------------------------------------------------------------ #
    def regressor_names(self) -> list[str]:
        """Names of the design-matrix columns."""
        names = ["intercept", "forcing"]
        if self.use_distributed_lag:
            names.append("lagged-forcing")
        for k in range(1, self.n_harmonics + 1):
            names += [f"cos{k}", f"sin{k}"]
        return names

    def design_matrix(
        self,
        n_times: int,
        annual_forcing: np.ndarray,
        rho: float,
        t_start: int = 0,
    ) -> np.ndarray:
        """Design matrix of shape ``(T, p)`` shared by all locations.

        ``t_start`` offsets the time axis: the rows cover absolute steps
        ``t_start .. t_start + n_times - 1``, which lets streaming
        generation evaluate the trend chunk by chunk.
        """
        steps = np.arange(t_start, t_start + n_times)
        t = steps.astype(np.float64)
        year = (steps // self.steps_per_year).astype(int)
        x = np.asarray(annual_forcing, dtype=np.float64)
        if year.max() >= len(x):
            raise ValueError("forcing trajectory shorter than the data record")
        cols = [np.ones(n_times), x[year]]
        if self.use_distributed_lag:
            d = distributed_lag_series(x, rho)
            cols.append(d[year])
        for k in range(1, self.n_harmonics + 1):
            phase = 2.0 * np.pi * t * k / self.steps_per_year
            cols.append(np.cos(phase))
            cols.append(np.sin(phase))
        return np.column_stack(cols)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(
        self,
        data: np.ndarray,
        annual_forcing: np.ndarray,
    ) -> TrendFit:
        """Fit the trend at every location.

        Parameters
        ----------
        data:
            Fields of shape ``(R, T, ntheta, nphi)`` or ``(T, ntheta,
            nphi)``; ensemble members share the trend (Eq. 1), so they are
            averaged into the fit target.
        annual_forcing:
            Annual forcing trajectory covering the record.

        Returns
        -------
        TrendFit
            Per-location coefficients, chosen ``rho`` and residual variance.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim == 3:
            data = data[None, ...]
        if data.ndim != 4:
            raise ValueError("data must have shape (R, T, ntheta, nphi)")
        n_ens, n_times = data.shape[:2]
        space_shape = data.shape[2:]
        # The trend is shared across ensembles: fitting on the ensemble mean
        # is the least-squares solution for the pooled problem.
        target = data.mean(axis=0).reshape(n_times, -1)

        rho_candidates = self.rho_grid if self.use_distributed_lag else (0.0,)
        best_sse = np.full(target.shape[1], np.inf)
        best_rho = np.zeros(target.shape[1])
        best_coeffs = None

        for rho in rho_candidates:
            design = self.design_matrix(n_times, annual_forcing, rho)
            # lstsq's minimum-norm solution, with its rcond=None rank cutoff.
            u, sv, vt = np.linalg.svd(design, full_matrices=False)
            keep = sv > np.finfo(np.float64).eps * max(design.shape) * sv[0]
            coeffs = (vt[keep].T / sv[keep]) @ (u[:, keep].T @ target)
            resid = target - design @ coeffs
            sse = np.sum(resid ** 2, axis=0)
            improved = sse < best_sse
            if best_coeffs is None:
                best_coeffs = coeffs.copy()
            best_coeffs[:, improved] = coeffs[:, improved]
            best_rho[improved] = rho
            best_sse[improved] = sse[improved]

        assert best_coeffs is not None
        n_params = best_coeffs.shape[0]
        dof = max(n_times - n_params, 1)
        fit = TrendFit(
            coefficients=best_coeffs.T.reshape(space_shape + (n_params,)),
            rho=best_rho.reshape(space_shape),
            residual_variance=(best_sse / dof).reshape(space_shape),
            regressor_names=self.regressor_names(),
        )
        self.fit_result = fit
        return fit

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(
        self,
        n_times: int,
        annual_forcing: np.ndarray,
        fit: TrendFit | None = None,
        t_start: int = 0,
    ) -> np.ndarray:
        """Evaluate ``m_t`` for every location, shape ``(T, ntheta, nphi)``.

        Each distinct ``rho`` (:attr:`TrendFit.rho_groups`) costs one design
        matrix and one product with its coefficient block; one gather restores
        location order.  ``t_start`` evaluates the trend for absolute steps
        ``t_start .. t_start + n_times - 1`` (chunked/streaming generation).
        """
        fit = fit or self.fit_result
        if fit is None:
            raise RuntimeError("fit() must be called before predict()")
        values, blocks, inverse = fit.rho_groups
        grouped = np.concatenate([
            self.design_matrix(n_times, annual_forcing, float(rho), t_start=t_start) @ block.T
            for rho, block in zip(values, blocks)
        ], axis=1)
        return np.take(grouped, inverse, axis=1).reshape((n_times,) + fit.rho.shape)

    def residuals(
        self,
        data: np.ndarray,
        annual_forcing: np.ndarray,
        fit: TrendFit | None = None,
    ) -> np.ndarray:
        """Residual fields ``y - m`` with shape ``(R, T, ntheta, nphi)``."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim == 3:
            data = data[None, ...]
        mean = self.predict(data.shape[1], annual_forcing, fit)
        return data - mean[None, ...]

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Hyper-parameters from which :meth:`from_state` rebuilds the model.

        The fitted coefficients live in :class:`TrendFit` and are serialised
        separately (the model object itself is pure configuration).
        """
        return {
            "steps_per_year": int(self.steps_per_year),
            "n_harmonics": int(self.n_harmonics),
            "rho_grid": [float(r) for r in self.rho_grid],
            "use_distributed_lag": bool(self.use_distributed_lag),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MeanTrendModel":
        """Rebuild a model from :meth:`state_dict` output."""
        return cls(
            steps_per_year=int(state["steps_per_year"]),
            n_harmonics=int(state["n_harmonics"]),
            rho_grid=tuple(float(r) for r in state["rho_grid"]),
            use_distributed_lag=bool(state["use_distributed_lag"]),
        )
