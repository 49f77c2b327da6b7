"""Tests of the process-safe SHT plan cache."""

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.sht.backends import SHT_BACKENDS
from repro.sht.grid import Grid
from repro.sht.plancache import (
    clear_plan_cache,
    get_plan,
    plan_cache_key,
    plan_cache_stats,
    set_plan_cache_limit,
)
from repro.sht.transform import SHTPlan
from repro.util.registry import UnknownBackendError


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test observes its own hit/miss history and an unlimited cache."""
    set_plan_cache_limit(None)
    clear_plan_cache()
    yield
    set_plan_cache_limit(None)
    clear_plan_cache()


class TestCacheHits:
    def test_hit_returns_the_same_plan_object(self):
        grid = Grid.for_bandlimit(6)
        first = get_plan("fast", 6, grid)
        second = get_plan("fast", 6, grid)
        assert first is second
        stats = plan_cache_stats()
        assert stats["size"] == 1 and stats["misses"] == 1 and stats["hits"] == 1

    def test_hit_serves_identical_tables(self):
        grid = Grid.for_bandlimit(6)
        plan = get_plan("fast", 6, grid)
        again = get_plan("fast", 6, grid)
        fresh = SHTPlan(lmax=6, grid=grid)
        for m in range(6):
            assert again._syn_ops[m] is plan._syn_ops[m]
            np.testing.assert_array_equal(again._syn_ops[m], fresh._syn_ops[m])
            np.testing.assert_array_equal(again._ana_ops[m], fresh._ana_ops[m])

    def test_aliases_share_one_entry(self):
        grid = Grid.for_bandlimit(5)
        assert get_plan("fast", 5, grid) is get_plan("fft", 5, grid)
        assert plan_cache_stats()["size"] == 1

    def test_lookup_is_case_insensitive(self):
        grid = Grid.for_bandlimit(5)
        assert get_plan("fast", 5, grid) is get_plan("FAST", 5, grid)


class TestCacheKeys:
    def test_distinct_keys_do_not_collide(self):
        grid6 = Grid.for_bandlimit(6)
        grid8 = Grid.for_bandlimit(8)
        plans = {
            "fast-6": get_plan("fast", 6, grid6),
            "fast-8": get_plan("fast", 8, grid8),
            "fast-6-oversampled": get_plan("fast", 6, grid8),
            "direct-6": get_plan("direct", 6, grid6),
        }
        assert len({id(p) for p in plans.values()}) == len(plans)
        assert plan_cache_stats()["size"] == len(plans)
        assert plans["fast-6"].lmax == 6 and plans["fast-8"].lmax == 8
        assert plans["fast-6-oversampled"].grid == grid8

    def test_key_canonicalises_backend_name(self):
        grid = Grid.for_bandlimit(4)
        assert plan_cache_key("FFT", 4, grid) == plan_cache_key("fast", 4, grid)
        assert plan_cache_key("fast", 4, grid) != plan_cache_key("direct", 4, grid)

    def test_unknown_backend_raises_listing_names(self):
        with pytest.raises(UnknownBackendError, match="'fast'"):
            get_plan("nonexistent", 4, Grid.for_bandlimit(4))

    def test_reregistered_backend_misses_stale_entry(self):
        """overwrite=True registration must not serve the old factory's plan."""
        grid = Grid.for_bandlimit(4)
        SHT_BACKENDS.register(
            "cache-test", lambda lmax, grid: SHTPlan(lmax=lmax, grid=grid),
            description="test-only", overwrite=True,
        )
        try:
            stale = get_plan("cache-test", 4, grid)
            SHT_BACKENDS.register(
                "cache-test", lambda lmax, grid: SHTPlan(lmax=lmax, grid=grid),
                description="test-only v2", overwrite=True,
            )
            fresh = get_plan("cache-test", 4, grid)
            assert fresh is not stale
        finally:
            SHT_BACKENDS.unregister("cache-test")


class TestBytesLimit:
    def test_unlimited_by_default(self):
        for lmax in (4, 5, 6, 7, 8):
            get_plan("fast", lmax, Grid.for_bandlimit(lmax))
        stats = plan_cache_stats()
        assert stats["limit_bytes"] is None
        assert stats["size"] == 5 and stats["evictions"] == 0
        assert stats["bytes"] > 0

    def test_limit_evicts_least_recently_used(self):
        plans = {
            lmax: get_plan("fast", lmax, Grid.for_bandlimit(lmax))
            for lmax in (4, 6, 8)
        }
        get_plan("fast", 4, Grid.for_bandlimit(4))  # refresh lmax=4 to MRU
        total = plan_cache_stats()["bytes"]
        # Budget for roughly the two smaller plans: the LRU entry (lmax=6)
        # must go first.
        set_plan_cache_limit(total - 1)
        stats = plan_cache_stats()
        assert stats["evictions"] >= 1
        assert stats["bytes"] <= total - 1
        keys = {key[2] for key in stats["keys"]}
        assert 8 in keys  # most recently inserted survives
        assert plans  # keep references alive; evicted plans rebuild on demand

    def test_evicted_plan_rebuilds_on_next_use(self):
        grid = Grid.for_bandlimit(6)
        first = get_plan("fast", 6, grid)
        set_plan_cache_limit(0)  # evicts on every insert beyond the newest
        get_plan("fast", 8, Grid.for_bandlimit(8))
        rebuilt = get_plan("fast", 6, grid)
        assert rebuilt is not first
        np.testing.assert_array_equal(rebuilt._ana_ops[0], first._ana_ops[0])
        assert plan_cache_stats()["evictions"] >= 1

    def test_single_oversized_plan_still_serves(self):
        set_plan_cache_limit(1)  # smaller than any plan
        grid = Grid.for_bandlimit(6)
        plan = get_plan("fast", 6, grid)
        # The most recently served plan survives its own insertion ...
        assert plan_cache_stats()["size"] == 1
        # ... and a subsequent distinct plan replaces it.
        get_plan("fast", 8, Grid.for_bandlimit(8))
        stats = plan_cache_stats()
        assert stats["size"] == 1 and stats["keys"][0][2] == 8

    def test_hits_refresh_recency(self):
        set_plan_cache_limit(None)
        a = get_plan("fast", 4, Grid.for_bandlimit(4))
        get_plan("fast", 6, Grid.for_bandlimit(6))
        get_plan("fast", 4, Grid.for_bandlimit(4))  # hit: lmax=4 becomes MRU
        stats = plan_cache_stats()
        assert [key[2] for key in stats["keys"]] == [6, 4]
        assert a is get_plan("fast", 4, Grid.for_bandlimit(4))

    def test_rejects_negative_limit(self):
        with pytest.raises(ValueError, match="max_bytes"):
            set_plan_cache_limit(-1)

    def test_plan_bytes_are_fixed_at_insertion(self):
        """Plans are built eagerly: using one never grows its footprint.

        The bytes-limit eviction measures each plan once per pass on the
        premise that every table (index maps, per-order synthesis and
        analysis operators) exists from ``__post_init__`` — pinned
        here by exercising both transform directions and checking the
        measured cache bytes do not move.
        """
        grid = Grid.for_bandlimit(6)
        plan = get_plan("fast", 6, grid)
        before = plan_cache_stats()["bytes"]
        assert before > 0
        coeffs = plan.random_coefficients(np.random.default_rng(0), shape=(3,))
        plan.forward(plan.inverse(coeffs))
        assert plan_cache_stats()["bytes"] == before

    def test_limit_survives_clear(self):
        set_plan_cache_limit(123456)
        clear_plan_cache()
        assert plan_cache_stats()["limit_bytes"] == 123456

    def test_plan_bytes_count_each_owning_buffer_once(self):
        """``sht.plan_bytes`` is what the plan keeps alive, however it is held.

        The same operators packed as views of one buffer, as a list of
        lists, and as a dict of tuples measure the same bytes: views are
        followed to their base and counted once, containers are walked at
        any depth, and a small view pins its whole base.
        """
        from types import SimpleNamespace

        from repro.sht.plancache import _plan_nbytes

        shapes = [(5, 4), (3, 4), (2, 7)]
        sizes = [rows * cols for rows, cols in shapes]
        buffer = np.arange(float(sum(sizes)))
        starts = np.concatenate(([0], np.cumsum(sizes)))
        views = [
            buffer[start:start + size].reshape(shape)
            for start, size, shape in zip(starts, sizes, shapes)
        ]
        owned = [view.copy() for view in views]
        expected = buffer.nbytes
        assert _plan_nbytes(SimpleNamespace(ops=views)) == expected
        assert _plan_nbytes(SimpleNamespace(ops=views, again=views[1].T)) == expected
        assert _plan_nbytes(SimpleNamespace(ops=[owned[:1], owned[1:]])) == expected
        assert _plan_nbytes(SimpleNamespace(ops={"a": (owned[0],), "b": tuple(owned[1:])})) == expected
        assert _plan_nbytes(SimpleNamespace(ops=owned, twice=owned)) == expected
        assert _plan_nbytes(SimpleNamespace(corner=buffer[:2])) == expected
        assert _plan_nbytes(SimpleNamespace(lmax=6, name="x", nothing=None)) == 0


class TestConcurrency:
    def test_threads_converge_on_one_plan(self):
        grid = Grid.for_bandlimit(8)
        with ThreadPoolExecutor(max_workers=8) as pool:
            plans = list(pool.map(
                lambda _: get_plan("fast", 8, grid), range(16)
            ))
        assert all(p is plans[0] for p in plans)
        assert plan_cache_stats()["size"] == 1

    def test_concurrent_load_and_emulate_share_one_plan(
        self, fitted_emulator, tmp_path
    ):
        """repro.load + emulate hammered from threads: one plan, same bits.

        Every load resolves its transform plan through the shared cache
        while other threads emulate with it; the cache must neither
        corrupt the plan (outputs stay bit-identical to a serial run)
        nor duplicate it (one entry, one miss).
        """
        import numpy as np

        import repro

        path = repro.save(fitted_emulator, tmp_path / "emulator.npz")
        serial = repro.load(path).emulate(
            1, n_times=24, rng=np.random.default_rng(9)
        )
        n_threads = 8
        outputs = [None] * n_threads
        errors = []

        def worker(i):
            try:
                emulator = repro.load(path)
                outputs[i] = emulator.emulate(
                    1, n_times=24, rng=np.random.default_rng(9)
                )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(worker, range(n_threads)))
        assert not errors
        for output in outputs:
            np.testing.assert_array_equal(output.data, serial.data)
        stats = plan_cache_stats()
        key = plan_cache_key(
            fitted_emulator.config.sht_method,
            fitted_emulator.config.lmax,
            fitted_emulator.training_summary.grid,
        )
        assert stats["keys"].count(key) == 1
        # Duplicate concurrent builds may race, but exactly one entry
        # serves every subsequent lookup.
        assert sum(1 for k in stats["keys"] if k == key) == 1

    def test_concurrent_get_under_bytes_limit_stays_consistent(self):
        """Eviction churn under threads must never serve a wrong plan."""
        grids = {lmax: Grid.for_bandlimit(lmax) for lmax in (4, 5, 6, 7)}
        set_plan_cache_limit(1)  # every insert evicts the rest: maximum churn
        errors = []

        def worker(i):
            lmax = 4 + (i % 4)
            try:
                plan = get_plan("fast", lmax, grids[lmax])
                assert plan.lmax == lmax and plan.grid == grids[lmax]
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(64)))
        assert not errors
        stats = plan_cache_stats()
        assert stats["size"] == 1
        assert stats["evictions"] > 0

    def test_process_workers_warm_independently(self):
        """Each worker process builds its own cache (module state is per-process)."""
        with ProcessPoolExecutor(max_workers=2) as pool:
            reports = list(pool.map(_warm_and_report, [6, 6]))
        parent = plan_cache_stats()
        for report in reports:
            assert report["pid"] != parent["pid"]
            # The worker's first build is a miss in its own cache, and the
            # repeat lookup hits it; nothing leaked into the parent cache.
            assert report["misses"] >= 1
            assert report["hits"] >= 1
        assert parent["size"] == 0


def _warm_and_report(lmax: int) -> dict:
    """Process-pool worker: warm the local cache and report its counters."""
    grid = Grid.for_bandlimit(lmax)
    get_plan("fast", lmax, grid)
    get_plan("fast", lmax, grid)
    stats = plan_cache_stats()
    assert stats["pid"] == os.getpid()
    return stats
