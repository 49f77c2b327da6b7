"""``sht_L128`` — the transform alone, at the band-limit ROADMAP item 2 is judged at.

``sht`` does all of the work; ``core``, ``linalg``, ``storage`` and
``serving`` are never called, so an SHT change must show here and a
storage or serving change must show nothing.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.sht.grid import Grid

from benchmarks.e2e import layers
from benchmarks.e2e.common import Workload, child_seed, sha256, timed

ROUNDTRIP_TOLERANCE = 1e-10


def real_field_coefficients(rng: np.random.Generator, lmax: int, batch: int) -> np.ndarray:
    """``(batch, L**2)`` coefficient sets of real fields, ``idx = l*l + l + m``.

    Drawn here rather than by ``SHTPlan.random_coefficients`` so the
    inputs exist before, and independently of, the plan being measured.
    """
    coeffs = np.zeros((batch, lmax * lmax), dtype=np.complex128)
    ell = np.arange(lmax)
    coeffs[:, ell * ell + ell] = rng.standard_normal((batch, lmax))
    ell, m = np.tril_indices(lmax, -1)
    m = m + 1  # orders 1..l of every degree
    value = (
        rng.standard_normal((batch, len(ell))) + 1j * rng.standard_normal((batch, len(ell)))
    ) / np.sqrt(2.0)
    coeffs[:, ell * ell + ell + m] = value
    coeffs[:, ell * ell + ell - m] = np.where(m % 2 == 0, 1.0, -1.0) * np.conj(value)
    return coeffs


class ShtWorkload(Workload):
    name = "sht_L128"
    setup_repeats = 3

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.lmax = 8 if smoke else 128
        self.batch = 4 if smoke else 32
        self.max_err = 0.0

    def make_inputs(self) -> str:
        rng = np.random.default_rng(child_seed(self.seed, 0))
        self.coeffs = real_field_coefficients(rng, self.lmax, self.batch)
        return sha256(self.coeffs)

    def _transform(self) -> tuple[float, float, float]:
        fields, inverse_s = timed(self.plan.inverse, self.coeffs)
        back, forward_s = timed(self.plan.forward, fields)
        return inverse_s, forward_s, float(np.abs(back - self.coeffs).max())

    def setup(self) -> None:
        repro.clear_plan_cache()
        grid = Grid.for_bandlimit(self.lmax)
        self.plan, self.plan_build_s = timed(repro.get_plan, "fast", self.lmax, grid)
        cold, warm = (sum(self._transform()[:2]) for _ in range(2))
        self.lazy_init_s = cold - warm

    def round(self) -> dict:
        inverse_s, forward_s, err = self._transform()
        self.attempted += 1
        self.failed += not err <= ROUNDTRIP_TOLERANCE
        self.max_err = max(self.max_err, err)
        return {"inverse": inverse_s, "forward": forward_s, "round": inverse_s + forward_s}

    def report(self, rounds: dict, metrics) -> None:
        # One round transforms the batch in both directions.
        metrics.put_timing("ms_per_field", rounds["round"], 1e3 / (2 * self.batch))
        self.info["roundtrip_max_err"] = self.max_err

    def trace(self, tracer, seconds: float, rounds: dict, metrics) -> None:
        spent, n = 0.0, 0
        while n < 2 or spent < 0.6 * seconds:
            _, dt = timed(layers.sht_replay, tracer, self.plan, self.coeffs, "round")
            spent, n = spent + dt, n + 1
        layers.plan_metrics(metrics, self.plan_build_s)
        metrics.put("sht.lazy_init_s", self.lazy_init_s)
        layers.sht_metrics(
            tracer, metrics, self.plan, self.batch,
            min(rounds["inverse"]), min(rounds["forward"]),
        )
        metrics.put("sht.roundtrip_max_err", self.max_err)
        layers.obs_overhead(
            tracer, metrics, lambda: sum(self._transform()[:2]), 3 if self.smoke else 8
        )
