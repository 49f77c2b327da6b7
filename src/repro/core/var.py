"""Diagonal vector autoregression on spherical-harmonic coefficients.

The temporal dependence of the spectral coefficient vector ``f_t`` is
modelled as ``f_t = sum_p Phi_p f_{t-p} + xi_t`` with *diagonal* matrices
``Phi_p`` (paper Section III-A.3), i.e. every coefficient follows its own
scalar AR(P) process while the innovations ``xi_t`` are allowed a full
``L^2 x L^2`` covariance ``U``.  The diagonal restriction is what keeps the
temporal fit ``O(L^2 T)`` and leaves the heavy lifting to the single
Cholesky factorisation of ``U``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__: list[str] = []


@dataclass
class _DiagonalVAR:
    """AR(P) model applied coefficient-wise to a multivariate series.

    Parameters
    ----------
    order:
        Autoregressive order ``P`` (0 disables the temporal model).
    ridge:
        Small Tikhonov term added to the per-coefficient normal equations
        for numerical safety with short records.
    """

    order: int = 2
    ridge: float = 1e-10
    coefficients: np.ndarray | None = field(default=None, init=False)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, series: np.ndarray) -> "_DiagonalVAR":
        """Estimate the diagonal AR coefficients.

        Parameters
        ----------
        series:
            Real array of shape ``(R, T, K)`` (ensemble members, time,
            coefficients) or ``(T, K)``.

        Returns
        -------
        _DiagonalVAR
            ``self`` with ``coefficients`` of shape ``(P, K)``; lag ``p``
            coefficient of component ``k`` is ``coefficients[p-1, k]``.
        """
        series = np.asarray(series, dtype=np.float64)
        if series.ndim == 2:
            series = series[None, ...]
        if series.ndim != 3:
            raise ValueError("series must have shape (R, T, K)")
        _, n_times, n_comp = series.shape
        p = self.order
        if p == 0:
            self.coefficients = np.zeros((0, n_comp))
            return self
        if n_times <= p:
            raise ValueError(f"need more than order={p} time steps, got {n_times}")

        # Per-component normal equations, pooling ensembles: A[k] is (P, P),
        # b[k] is (P,), one reduction over members and time per lag pair.
        lags = [series[:, p - q - 1:n_times - q - 1] for q in range(p)]
        a = np.empty((n_comp, p, p))
        b = np.empty((n_comp, p))
        for i in range(p):
            for j in range(i, p):
                a[:, i, j] = a[:, j, i] = np.einsum("rtk,rtk->k", lags[i], lags[j])
            b[:, i] = np.einsum("rtk,rtk->k", lags[i], series[:, p:])
        a += self.ridge * np.eye(p)[None, :, :]
        self.coefficients = np.linalg.solve(a, b[..., None])[..., 0].T  # (P, K)
        return self

    # ------------------------------------------------------------------ #
    # Residuals and simulation
    # ------------------------------------------------------------------ #
    def _require_fit(self) -> np.ndarray:
        if self.coefficients is None:
            raise RuntimeError("fit() must be called first")
        return self.coefficients

    def innovations(self, series: np.ndarray) -> np.ndarray:
        """Residuals ``xi_t = f_t - sum_p Phi_p f_{t-p}``.

        Parameters
        ----------
        series:
            ``(R, T, K)`` or ``(T, K)`` real array.

        Returns
        -------
        numpy.ndarray
            Innovations of shape ``(R, T - P, K)`` (or ``(T - P, K)``).
        """
        coeffs = self._require_fit()
        series = np.asarray(series, dtype=np.float64)
        squeeze = series.ndim == 2
        if squeeze:
            series = series[None, ...]
        p = self.order
        if p == 0:
            out = series.copy()
        else:
            n_times = series.shape[1]
            pred = np.zeros_like(series[:, p:])
            for q in range(p):
                pred += coeffs[q] * series[:, p - q - 1: n_times - q - 1]
            out = series[:, p:] - pred
        return out[0] if squeeze else out

    def simulate(
        self,
        innovations: np.ndarray,
        initial: np.ndarray | None = None,
    ) -> np.ndarray:
        """Roll the AR recursion forward over a sequence of innovations, in place.

        Parameters
        ----------
        innovations:
            ``(T, K)`` or ``(R, T, K)`` innovations ``xi_t``; a ``float64``
            array is overwritten by the series (pass a copy to keep it).
        initial:
            Optional initial history of shape ``(..., P, K)``; zeros when
            omitted.

        Returns
        -------
        numpy.ndarray
            The simulated series, same shape as ``innovations``.
        """
        coeffs = self._require_fit()
        innovations = np.asarray(innovations, dtype=np.float64)
        squeeze = innovations.ndim == 2
        if squeeze:
            innovations = innovations[None, ...]
        n_ens, n_times, n_comp = innovations.shape
        p = self.order
        if initial is None:
            history = np.zeros((n_ens, p, n_comp))
        else:
            history = np.broadcast_to(
                np.asarray(initial, dtype=np.float64), (n_ens, p, n_comp)
            )
        # Step t reads its lags from rows already written, or from the initial history.
        out = innovations
        for t in range(n_times):
            for q in range(p):
                lag = t - q - 1
                out[:, t] += coeffs[q] * (out[:, lag] if lag >= 0 else history[:, p + lag])
        return out[0] if squeeze else out

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Arrays and metadata from which :meth:`from_state` rebuilds the VAR."""
        return {
            "order": int(self.order),
            "ridge": float(self.ridge),
            "coefficients": (
                np.asarray(self.coefficients, dtype=np.float64)
                if self.coefficients is not None
                else None
            ),
        }

    @classmethod
    def from_state(cls, state: dict) -> "_DiagonalVAR":
        """Rebuild a VAR from :meth:`state_dict` output."""
        var = cls(order=int(state["order"]), ridge=float(state["ridge"]))
        coefficients = state.get("coefficients")
        if coefficients is not None:
            var.coefficients = np.asarray(coefficients, dtype=np.float64)
        return var
