"""E15 — telemetry overhead: the spans on the synthesis hot path are near-free.

The observability layer promises two things the test-suite and this
benchmark pin together:

* **bit-inert** — emitted arrays are bit-identical with tracing on, off,
  or toggled mid-run (hard-asserted here against a span-free
  re-composition of the same arithmetic);
* **near-free when disabled** — the instrumented batched synthesis path
  (a stacked runs x times coefficient batch through
  :meth:`SHTPlan.inverse`) costs
  at most ``MAX_DISABLED_OVERHEAD`` more than the identical arithmetic
  with no spans at all.

The baseline re-composes :meth:`SHTPlan.inverse` from the plan's own
un-instrumented pieces (per-order GEMMs + blocked longitude FFTs), so
the *only* difference between the timed paths is the telemetry layer:
span bookkeeping plus the always-on duration histograms.  Tracing
*enabled* (in-memory sink) is measured and reported too, but only the
disabled gate is enforced — enabled tracing buys trace records and is
allowed to cost more.

The wall-clock gate is soft-gated by ``REPRO_BENCH_SOFT=1`` for noisy
shared runners, like the other benchmark jobs.  Run as a script:
``PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py`` — this
also writes a ``BENCH_telemetry_overhead.json`` artifact (override the
location with ``REPRO_BENCH_OUT``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs import tracing
from repro.sht import transform
from repro.sht.grid import Grid
from repro.sht.transform import SHTPlan

try:
    from benchmarks._report import emit_summary, soft_gate, write_report
except ImportError:  # run as a script with benchmarks/ as sys.path[0]
    from _report import emit_summary, soft_gate, write_report

LMAX = 48                 # the fit_L48 ledger workload's band-limit
N_RUNS = 16               # realizations in the stacked batch
N_TIMES = 24              # one model year of the benchmark calendar
SEED = 2024
ROUNDS = 7                # timing repeats; min-of-rounds is compared
MAX_DISABLED_OVERHEAD = 0.02


def _coefficients(plan: SHTPlan) -> np.ndarray:
    """A stacked ``(N_RUNS, N_TIMES, L**2)`` coefficient batch."""
    rng = np.random.default_rng(SEED)
    return plan.random_coefficients(rng, shape=(N_RUNS, N_TIMES))


def _baseline_inverse(plan: SHTPlan, coeffs: np.ndarray) -> np.ndarray:
    """The exact arithmetic of :meth:`SHTPlan.inverse`, with no telemetry.

    Mirrors the production method step for step (the GEMMs to the
    colatitude samples, then the reorder + ``irfft`` over blocks of
    ``_SYNTHESIS_BLOCK`` leading slices) so the output is bit-identical
    and the timed difference is spans alone.
    """
    h = plan.wigner_contraction_inverse(np.asarray(coeffs, dtype=np.complex128))
    lead = h.shape[2:-1]  # the stage array is (L, 2, ..., W): [m, part, ..., theta]
    n_flat = int(np.prod(lead))
    if n_flat <= transform._SYNTHESIS_BLOCK:
        return plan.synthesis_from_fourier(h)
    flat = h.reshape(h.shape[:2] + (n_flat,) + h.shape[-1:])
    out = np.empty((n_flat,) + plan.grid.shape, dtype=np.float64)
    for start in range(0, n_flat, transform._SYNTHESIS_BLOCK):
        block = flat[:, :, start:start + transform._SYNTHESIS_BLOCK]
        out[start:start + transform._SYNTHESIS_BLOCK] = (
            plan.synthesis_from_fourier(block)
        )
    return out.reshape(lead + plan.grid.shape)


def _timed_once(func, *args) -> float:
    """Wall-clock of a single call."""
    t0 = time.perf_counter()
    func(*args)
    return time.perf_counter() - t0


def run_benchmark() -> dict:
    plan = SHTPlan(lmax=LMAX, grid=Grid.for_bandlimit(LMAX))
    coeffs = _coefficients(plan)

    # Bit-inertness first: baseline == instrumented, tracing off and on,
    # and across a mid-run toggle.
    reference = _baseline_inverse(plan, coeffs)
    assert np.array_equal(reference, plan.inverse(coeffs)), \
        "instrumented synthesis (tracing disabled) changed bits"
    with tracing():
        assert np.array_equal(reference, plan.inverse(coeffs)), \
            "instrumented synthesis (tracing enabled) changed bits"
    assert np.array_equal(reference, plan.inverse(coeffs)), \
        "instrumented synthesis after a tracing toggle changed bits"

    # The asserts above warmed every path.  Interleave the gated pair
    # round-robin (baseline, then disabled, each round) so clock drift
    # and cache state hit both variants equally; min-of-rounds compares.
    t_baseline = t_disabled = t_enabled = float("inf")
    for _ in range(ROUNDS):
        t_baseline = min(t_baseline, _timed_once(_baseline_inverse, plan, coeffs))
        t_disabled = min(t_disabled, _timed_once(plan.inverse, coeffs))
    with tracing():
        plan.inverse(coeffs)
        for _ in range(ROUNDS):
            t_enabled = min(t_enabled, _timed_once(plan.inverse, coeffs))

    disabled_overhead = t_disabled / t_baseline - 1.0
    enabled_overhead = t_enabled / t_baseline - 1.0
    return {
        "benchmark": "telemetry_overhead",
        "lmax": LMAX,
        "n_slices": N_RUNS * N_TIMES,
        "rounds": ROUNDS,
        "baseline_seconds": round(t_baseline, 6),
        "disabled_seconds": round(t_disabled, 6),
        "enabled_seconds": round(t_enabled, 6),
        "disabled_overhead": round(disabled_overhead, 4),
        "enabled_overhead": round(enabled_overhead, 4),
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "bit_inert": True,
    }


def _check_overhead(summary: dict) -> None:
    """Enforce the disabled-overhead bound via the shared soft gate."""
    soft_gate(
        summary["disabled_overhead"] <= MAX_DISABLED_OVERHEAD,
        f"telemetry-disabled synthesis is "
        f"{summary['disabled_overhead'] * 100:.2f}% slower than the "
        f"span-free baseline (bound {MAX_DISABLED_OVERHEAD * 100:.0f}%)",
    )


def test_telemetry_overhead():
    """Pytest entry point mirroring the script run."""
    summary = run_benchmark()
    emit_summary(summary)
    assert summary["bit_inert"]
    _check_overhead(summary)


if __name__ == "__main__":
    summary = run_benchmark()
    emit_summary(summary)
    write_report("telemetry_overhead", summary)
    _check_overhead(summary)
