"""Diagonal vector autoregression on spherical-harmonic coefficients.

The temporal dependence of the spectral coefficient vector ``f_t`` is
modelled as ``f_t = sum_p Phi_p f_{t-p} + xi_t`` with *diagonal* matrices
``Phi_p`` (paper Section III-A.3), i.e. every coefficient follows its own
scalar AR(P) process while the innovations ``xi_t`` are allowed a full
``L^2 x L^2`` covariance ``U``.  The diagonal restriction is what keeps the
temporal fit ``O(L^2 T)`` and leaves the heavy lifting to the single
Cholesky factorisation of ``U``.

A dense (non-diagonal) option is provided for small problems so the
benchmark suite can quantify what the diagonal approximation gives up.
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
        n_ens, n_times, n_comp = series.shape
        p = self.order
        if p == 0:
            self.coefficients = np.zeros((0, n_comp))
            return self
        if n_times <= p:
            raise ValueError(f"need more than order={p} time steps, got {n_times}")

        # Build per-component normal equations, pooling ensembles.
        # A[k] is (P, P), b[k] is (P,).
        a = np.zeros((n_comp, p, p))
        b = np.zeros((n_comp, p))
        for r in range(n_ens):
            x = series[r]
            target = x[p:]  # (T-P, K)
            lags = np.stack([x[p - q - 1: n_times - q - 1] for q in range(p)], axis=-1)
            # lags: (T-P, K, P)
            a += np.einsum("tkp,tkq->kpq", lags, lags)
            b += np.einsum("tkp,tk->kp", lags, target)
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

    def predict_one_step(self, history: np.ndarray) -> np.ndarray:
        """One-step prediction from the last ``P`` rows of ``history``.

        ``history`` has shape ``(..., >=P, K)``; returns ``(..., K)``.
        """
        coeffs = self._require_fit()
        p = self.order
        if p == 0:
            return np.zeros(history.shape[:-2] + history.shape[-1:])
        recent = history[..., -p:, :]
        # coefficient for lag q multiplies history at index -q-1
        pred = np.zeros(history.shape[:-2] + (history.shape[-1],))
        for q in range(p):
            pred = pred + coeffs[q] * recent[..., -q - 1, :]
        return pred

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
        """Roll the AR recursion forward over a sequence of innovations.

        Parameters
        ----------
        innovations:
            ``(T, K)`` or ``(R, T, K)`` innovations ``xi_t``.
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
        out = np.zeros_like(innovations)
        if initial is None:
            history = np.zeros((n_ens, p, n_comp))
        else:
            history = np.broadcast_to(
                np.asarray(initial, dtype=np.float64), (n_ens, p, n_comp)
            ).copy()
        for t in range(n_times):
            value = innovations[:, t].copy()
            for q in range(p):
                value += coeffs[q] * history[:, -q - 1, :]
            out[:, t] = value
            if p > 0:
                history = np.concatenate([history[:, 1:], value[:, None, :]], axis=1)
        return out[0] if squeeze else out

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def spectral_radius(self) -> np.ndarray:
        """Largest AR characteristic-root modulus per component.

        Values below one indicate a stationary (stable) process; the
        emulator checks this before generating long emulations.
        """
        coeffs = self._require_fit()
        p, n_comp = coeffs.shape
        if p == 0:
            return np.zeros(n_comp)
        return self._companion_radii(coeffs)

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

    @staticmethod
    def _companion_radii(coeffs: np.ndarray) -> np.ndarray:
        p, n_comp = coeffs.shape
        radii = np.empty(n_comp)
        for k in range(n_comp):
            companion = np.zeros((p, p))
            companion[0, :] = coeffs[:, k]
            if p > 1:
                companion[1:, :-1] = np.eye(p - 1)
            radii[k] = np.max(np.abs(np.linalg.eigvals(companion)))
        return radii
