"""The FFT side's two halves: a split batch is the unsplit batch, bit for bit.

On the FFT side of ``_longitude_by_gemm`` a batch of at least
``_SPLIT_MIN_SLICES`` slices runs as two halves at once, one on the
calling thread and one on the process's worker thread.  Each half is the
unsplit code on fewer slices, so every entry point must return the bits
of per-slice calls and of an unsplit call; the GEMM side never hands a
half over; a caller that finds the worker busy runs whole, so concurrent
callers, the worker itself and a forked child all complete.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.obs import clear_trace, disable, trace_records, tracing
from repro.obs.tracing import Span
from repro.sht import transform
from repro.sht.grid import Grid
from repro.sht.plancache import get_plan

FFT_SIDE = 128  # nphi = 255: the longitude stage is pocketfft
GEMM_SIDE = 64  # nphi = 127: the longitude stage is a GEMM
UNSPLIT = 10**9
TWO_CPUS = len(os.sched_getaffinity(0)) >= 2 if hasattr(os, "sched_getaffinity") else (
    (os.cpu_count() or 1) >= 2)

ENTRIES = ("inverse", "inverse_complex", "inverse_realform", "forward", "forward_realform")


@pytest.fixture(autouse=True)
def clean_tracing():
    disable()
    clear_trace()
    yield
    disable()
    clear_trace()


def _plan(lmax):
    plan = get_plan("fast", lmax, Grid.for_bandlimit(lmax))
    assert (plan._lon_syn is None) == (lmax == FFT_SIDE)
    return plan


def _inputs(plan, entry, n, seed=0):
    rng = np.random.default_rng(seed)
    if entry.startswith("inverse"):
        coeffs = plan.random_coefficients(rng, shape=(n,))
        if entry == "inverse_realform":
            return rng.standard_normal((n, plan.n_coeffs))
        if entry == "inverse_complex":
            return coeffs + 0.5j * plan.random_coefficients(rng, shape=(n,))
        return coeffs
    return rng.standard_normal((n,) + plan.grid.shape)


def _call(plan, entry, x):
    if entry == "inverse_complex":
        return plan.inverse(x, real=False)
    return getattr(plan, entry)(x)


def _bits(array):
    """The raw bytes: equal bits, sign bits of zeros included."""
    return np.ascontiguousarray(array).view(np.uint8)


def _parts(name):
    return [r["attrs"]["parts"] for r in trace_records() if r["name"] == name]


class TestBitsAtTheFftSide:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 96])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_split_equals_per_slice_and_unsplit(self, monkeypatch, entry, n):
        plan = _plan(FFT_SIDE)
        x = _inputs(plan, entry, n)
        with tracing():
            split = _call(plan, entry, x)
        top = "sht.inverse" if entry.startswith("inverse") else "sht.forward"
        expected = 2 if n >= transform._SPLIT_MIN_SLICES and TWO_CPUS else 1
        assert set(_parts(top)) == {expected}
        monkeypatch.setattr(transform, "_SPLIT_MIN_SLICES", UNSPLIT)
        unsplit = _call(plan, entry, x)
        assert np.array_equal(_bits(split), _bits(unsplit))
        for b in range(n):
            assert np.array_equal(_bits(split[b]), _bits(_call(plan, entry, x[b])))

    def test_a_stacked_lead_shape_splits_its_flattened_slices(self):
        plan = _plan(FFT_SIDE)
        fields = _inputs(plan, "forward", 36).reshape((3, 12) + plan.grid.shape)
        coeffs = plan.forward(fields)
        assert coeffs.shape == (3, 12, plan.n_coeffs)
        assert np.array_equal(_bits(coeffs[2, 5]), _bits(plan.forward(fields[2, 5])))


class _SpyQueue:
    """Stands in for the worker's queue: counts and forwards hand-overs."""

    def __init__(self, jobs):
        self.jobs, self.handed = jobs, 0

    def put(self, job):
        self.handed += 1
        self.jobs.put(job)


@pytest.fixture
def worker_spy(monkeypatch):
    plan = _plan(FFT_SIDE)
    plan.inverse(_inputs(plan, "inverse", transform._SPLIT_MIN_SLICES))  # starts the worker
    worker = transform._WORKERS.get(os.getpid())
    if worker is None:
        pytest.skip("this process may run on one CPU: nothing is ever split")
    idle, jobs = worker
    spy = _SpyQueue(jobs)
    spy.idle = idle
    monkeypatch.setitem(transform._WORKERS, os.getpid(), (idle, spy))
    return spy


class TestWhereItSplits:
    def test_the_gemm_side_hands_nothing_to_the_worker(self, worker_spy):
        plan = _plan(GEMM_SIDE)
        for entry in ENTRIES:
            _call(plan, entry, _inputs(plan, entry, 96))
        assert worker_spy.handed == 0

    def test_the_fft_side_hands_over_one_half_per_real_transform(self, worker_spy):
        plan = _plan(FFT_SIDE)
        plan.forward(_inputs(plan, "forward", 32))
        plan.inverse(_inputs(plan, "inverse_complex", 32), real=False)
        assert worker_spy.handed == 3
        plan.forward(_inputs(plan, "forward", transform._SPLIT_MIN_SLICES - 1))
        assert worker_spy.handed == 3


class TestConcurrency:
    def test_8_threads_on_one_plan_each_get_the_serial_bits(self):
        plan = _plan(FFT_SIDE)
        inputs = [_inputs(plan, "inverse", 16, seed=s) for s in range(8)]
        serial = [plan.forward(plan.inverse(c)) for c in inputs]
        results = [None] * 8
        start = threading.Barrier(8)

        def run(i):
            start.wait()
            results[i] = plan.forward(plan.inverse(inputs[i]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, serial):
            assert np.array_equal(_bits(got), _bits(want))

    def test_a_caller_that_finds_the_worker_busy_runs_whole(self, worker_spy):
        """Concurrent callers never queue behind one another's halves."""
        plan = _plan(FFT_SIDE)
        coeffs = _inputs(plan, "inverse", 32)
        assert worker_spy.idle.acquire(blocking=False)  # another caller's half is on it
        try:
            with tracing():
                fields = plan.inverse(coeffs)
        finally:
            worker_spy.idle.release()
        assert _parts("sht.inverse") == [1]
        assert worker_spy.handed == 0
        with tracing():
            assert np.array_equal(_bits(fields), _bits(plan.inverse(coeffs)))
        assert _parts("sht.inverse") == [1, 2]  # idle again: it splits
        assert worker_spy.handed == 1

    def test_a_transform_called_on_the_worker_runs_unsplit_and_completes(self, worker_spy):
        plan = _plan(FFT_SIDE)
        coeffs = _inputs(plan, "inverse", 32)
        future = Future()
        assert worker_spy.idle.acquire(blocking=False)  # held while a half runs, as a caller does
        try:
            with tracing():
                worker_spy.put((future, Span("test_split.caller", {}), lambda: plan.inverse(coeffs)))
                fields = future.result(timeout=120)
        finally:
            worker_spy.idle.release()
        (record,) = [r for r in trace_records() if r["name"] == "sht.inverse"]
        assert record["attrs"]["parts"] == 1
        assert record["thread"] != threading.current_thread().name
        assert worker_spy.handed == 1  # the test's own hand-over only
        assert np.array_equal(_bits(fields), _bits(plan.inverse(coeffs)))


class TestSpans:
    def test_the_workers_stage_spans_are_children_of_the_callers_span(self):
        plan = _plan(FFT_SIDE)
        if not TWO_CPUS:
            pytest.skip("this process may run on one CPU: nothing is ever split")
        with tracing():
            plan.inverse(_inputs(plan, "inverse", 32))
        records = trace_records()
        (top,) = [r for r in records if r["name"] == "sht.inverse"]
        assert top["parent_id"] is None and top["attrs"]["parts"] == 2
        stages = [r for r in records if r is not top]
        assert sorted(r["name"] for r in stages) == [
            "sht.inverse.contraction", "sht.inverse.contraction",
            "sht.inverse.fft", "sht.inverse.fft",
        ]
        assert {r["parent_id"] for r in stages} == {top["span_id"]}
        assert len({r["thread"] for r in stages}) == 2
        halves = [r["attrs"]["slices"] for r in stages if r["name"].endswith("fft")]
        assert halves == [16, 16]


def _digest(array):
    return hashlib.sha256(_bits(array)).hexdigest()


def _child_transform(plan, coeffs, results):
    results.put((_digest(plan.inverse(coeffs)), os.getpid() in transform._WORKERS))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)
# Forking a process that runs threads is what this test is about.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_transforms_after_the_parent_used_the_worker():
    plan = _plan(FFT_SIDE)
    coeffs = _inputs(plan, "inverse", 32)
    expected = _digest(plan.inverse(coeffs))  # the parent's worker is running
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    child = context.Process(target=_child_transform, args=(plan, coeffs, results))
    child.start()
    try:
        got, started_a_worker = results.get(timeout=120)
    finally:
        child.join(timeout=120)
        if child.is_alive():
            child.kill()
            child.join()
        results.close()
        results.join_thread()
    assert child.exitcode == 0
    assert got == expected
    assert started_a_worker == TWO_CPUS
