"""Layer replays shared by several workloads (``--trace 1`` only).

Each function calls one layer's public functions directly on the
calling workload's own shapes, every call under its own span, and
records that layer's metrics.  Timings here are min-of-rounds: they are
diagnostics that say where an end-to-end change came from, not gates.
"""

from __future__ import annotations

import math
import os

import numpy as np

import repro
from repro.linalg.flops import gemm_flops_mnk, sht_contraction_flops
from repro.sht.realform import complex_from_real

from benchmarks.e2e.common import Metrics, min_seconds, timed
from benchmarks.e2e.tracer import Tracer

#: The transform blocks its FFT stages in 32 leading slices; stage
#: replays use one block so they see production's working set.
SHT_BLOCK = 32


def sht_replay(tracer: Tracer, plan, coeffs: np.ndarray, name: str = "sht.replay"):
    """Inverse then forward, stage by stage, as one span called ``name``."""
    with tracer.span(name, slices=len(coeffs)):
        with tracer.span("sht.inverse"):
            with tracer.span("sht.inverse.contraction"):
                fourier = plan.wigner_contraction_inverse(coeffs)
            with tracer.span("sht.inverse.fft"):
                fields = plan.synthesis_from_fourier(fourier)
        with tracer.span("sht.forward"):
            with tracer.span("sht.forward.fft"):
                k = plan.colatitude_fourier(plan.longitude_fourier(fields))
            with tracer.span("sht.forward.contraction"):
                back = plan.wigner_contraction_forward(k)
    return back


def sht_metrics(
    tracer: Tracer, metrics: Metrics, plan, n_fields: int,
    inverse_call_s: float, forward_call_s: float,
) -> None:
    """``sht.*`` from the stage spans of :func:`sht_replay` on ``n_fields``
    slices and the walls of whole ``inverse``/``forward`` calls on as many."""
    per_field = 1e3 / n_fields
    metrics.put("sht.inverse_ms_per_field", inverse_call_s * per_field)
    metrics.put("sht.forward_ms_per_field", forward_call_s * per_field)
    stage = {
        name: min(tracer.seconds(f"sht.{name}"))
        for name in ("inverse.contraction", "inverse.fft", "forward.fft", "forward.contraction")
    }
    for name, seconds in stage.items():
        metrics.put(f"sht.{name.replace('.', '_')}_ms_per_field", seconds * per_field)
    lmax = plan.lmax
    gflop = sht_contraction_flops(lmax, n_fields) / 1e9
    achieved = gflop / stage["inverse.contraction"]
    # The widest operator (order 0): n_fields rows, L degrees, 2L-1 columns,
    # counted with the same 2mnk convention as sht_contraction_flops.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n_fields, lmax)) + 1j * rng.standard_normal((n_fields, lmax))
    b = rng.standard_normal((lmax, 2 * lmax - 1)) + 0j
    with tracer.span("sht.gemm_peak"):
        peak = gemm_flops_mnk(n_fields, 2 * lmax - 1, lmax) / 1e9 / min_seconds(
            lambda: a @ b, 0.05, at_least=5
        )
    metrics.put("sht.contraction_gflop", gflop)
    metrics.put("sht.contraction_gflops", achieved)
    metrics.put("sht.gemm_peak_gflops", peak)
    metrics.put("sht.contraction_roofline_share", achieved / peak)


def sht_layer(tracer: Tracer, metrics: Metrics, plan, series: np.ndarray) -> None:
    """The whole ``sht`` layer on one block of a workload's coefficients.

    ``series`` is a real spectral series ``(..., L**2)`` as the emulator
    carries it; the first :data:`SHT_BLOCK` slices are transformed.
    """
    coeffs = complex_from_real(series.reshape(-1, series.shape[-1])[:SHT_BLOCK])
    min_seconds(lambda: sht_replay(tracer, plan, coeffs), 0.2, at_least=3)
    with tracer.span("sht.calls"):
        fields = plan.inverse(coeffs)
        inverse_s = min_seconds(lambda: plan.inverse(coeffs), 0.1, at_least=3)
        forward_s = min_seconds(lambda: plan.forward(fields), 0.1, at_least=3)
    sht_metrics(tracer, metrics, plan, len(coeffs), inverse_s, forward_s)


def plan_metrics(metrics: Metrics, build_s: float) -> None:
    """``sht.plan_*`` from a ``get_plan`` after ``clear_plan_cache``."""
    metrics.put("sht.plan_build_s", build_s)
    metrics.put("sht.plan_bytes", repro.plan_cache_stats()["bytes"])


def synthesis_parts(tracer: Tracer, metrics: Metrics, emulator, n_realizations: int) -> None:
    """What one generated year is made of: draws, densify, inverse SHT."""
    model = emulator.spectral_model
    rng = np.random.default_rng(0)
    steps = emulator.training_summary.steps_per_year
    with tracer.span("core.draw"):
        draw_s = min_seconds(
            lambda: model.sample_innovations(rng, n_realizations, steps), 0.2
        )
    metrics.put("core.draw_ms_per_step", draw_s * 1e3 / (n_realizations * steps))
    with tracer.span("linalg.lower"):
        metrics.put("linalg.lower_ms", min_seconds(model.cholesky.lower, 0.2) * 1e3)
    sht_layer(
        tracer, metrics, model.plan,
        model.sample_innovations(rng, n_realizations, steps),
    )


def obs_overhead(tracer: Tracer, metrics: Metrics, call, rounds: int) -> None:
    """The program's own tracing on against off, interleaved.

    ``call()`` runs the workload's end-to-end call once and returns the
    seconds it took.
    """
    off = on = math.inf
    with tracer.span("obs.overhead"):
        for _ in range(rounds):
            off = min(off, call())
            with repro.obs.tracing():
                on = min(on, call())
            repro.obs.clear_trace()
    metrics.put("obs.enabled_overhead_share", on / off - 1.0)


def storage_layer(tracer: Tracer, metrics: Metrics, chunks: dict, workdir: str) -> None:
    """``ChunkStore`` on the workload's own chunks, against a raw write."""
    n = len(chunks)
    nbytes = sum(array.nbytes for array in chunks.values())
    mb = nbytes / 1e6
    store = repro.ChunkStore(os.path.join(workdir, "layer_float64"))
    with tracer.span("storage.put_many", n_chunks=n, bytes=nbytes):
        _, put_s = timed(store.put_many, chunks)
    metrics.put("storage.put_many_mb_per_s", mb / put_s)
    metrics.put("storage.put_many_ms_per_chunk", put_s * 1e3 / n)
    with tracer.span("storage.get", n_chunks=n, bytes=nbytes):
        _, get_s = timed(lambda: [store.get(address) for address in chunks])
    metrics.put("storage.get_ms_per_chunk", get_s * 1e3 / n)
    metrics.put("storage.get_mb_per_s", mb / get_s)
    metrics.put("storage.bytes_per_chunk", store.stats()["encoded_bytes"] / n)

    def raw_write() -> None:
        for i, array in enumerate(chunks.values()):
            with open(os.path.join(workdir, f"raw_{i}.bin"), "wb") as handle:
                handle.write(array.tobytes())
                handle.flush()
                os.fsync(handle.fileno())

    with tracer.span("storage.raw_write", bytes=nbytes):
        metrics.put("storage.write_peak_mb_per_s", mb / timed(raw_write)[1])

    quantized = repro.ChunkStore(os.path.join(workdir, "layer_int16"), encoding="int16")
    with tracer.span("storage.int16_put_many", n_chunks=n, bytes=nbytes):
        _, int16_s = timed(quantized.put_many, chunks)
    metrics.put("storage.int16_put_mb_per_s", mb / int16_s)
    metrics.put("storage.int16_max_abs_err", quantized.max_abs_error())

    # One put into a root that already holds 1000 entries: every commit
    # rewrites the whole manifest, so this is what a long-lived store pays.
    crowded = repro.ChunkStore(os.path.join(workdir, "layer_1k"))
    crowded.put_many({f"{i:064x}": np.full(1, float(i)) for i in range(1000)})
    address, array = next(iter(chunks.items()))
    with tracer.span("storage.put_at_1k"):
        metrics.put("storage.put_ms_at_1k_chunks", timed(crowded.put, address, array)[1] * 1e3)
