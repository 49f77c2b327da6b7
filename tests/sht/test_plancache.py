"""Tests of the process-safe SHT plan cache."""

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.sht.grid import Grid
from repro.sht.plancache import clear_plan_cache, get_plan, plan_cache_stats
from repro.sht.transform import SHTPlan
from repro.util.registry import UnknownBackendError


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test observes its own hit/miss history."""
    clear_plan_cache()
    yield
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

    def test_lookup_is_case_insensitive(self):
        grid = Grid.for_bandlimit(5)
        assert get_plan("fast", 5, grid) is get_plan("FAST", 5, grid)
        assert get_plan(" Fast ", 5, grid) is get_plan("fast", 5, grid)


class TestCacheKeys:
    def test_distinct_keys_do_not_collide(self):
        grid6 = Grid.for_bandlimit(6)
        grid8 = Grid.for_bandlimit(8)
        plans = {
            "fast-6": get_plan("fast", 6, grid6),
            "fast-8": get_plan("fast", 8, grid8),
            "fast-6-oversampled": get_plan("fast", 6, grid8),
        }
        assert len({id(p) for p in plans.values()}) == len(plans)
        assert plan_cache_stats()["size"] == len(plans)
        assert plans["fast-6"].lmax == 6 and plans["fast-8"].lmax == 8
        assert plans["fast-6-oversampled"].grid == grid8

    def test_key_is_the_bandlimit_and_grid_shape(self):
        """The method name is not part of the key: every spelling of
        "fast" shares the one entry of its ``(lmax, ntheta, nphi)``."""
        grid = Grid(ntheta=9, nphi=13)
        plans = [get_plan(name, 6, grid) for name in ("fast", "FAST", " Fast ")]
        assert plans[0] is plans[1] is plans[2]
        assert plan_cache_stats()["keys"] == [(6, 9, 13)]

    def test_unknown_backend_raises_listing_names(self):
        """Only "fast" names the transform; the retired oracle names and
        alias are refused like any other, and nothing is built."""
        for name in ("nonexistent", "direct", "direct-lstsq", "fft"):
            with pytest.raises(UnknownBackendError, match=f"'{name}'.*'fast'"):
                get_plan(name, 4, Grid.for_bandlimit(4))
        assert plan_cache_stats()["size"] == 0


class TestPlanBytes:
    def test_every_key_stays_cached(self):
        for lmax in (4, 5, 6, 7, 8):
            get_plan("fast", lmax, Grid.for_bandlimit(lmax))
        stats = plan_cache_stats()
        assert stats["size"] == 5 and stats["misses"] == 5
        assert stats["bytes"] > 0

    def test_hits_keep_insertion_order(self):
        a = get_plan("fast", 4, Grid.for_bandlimit(4))
        get_plan("fast", 6, Grid.for_bandlimit(6))
        assert get_plan("fast", 4, Grid.for_bandlimit(4)) is a
        assert plan_cache_stats()["keys"] == [(4, 5, 7), (6, 7, 11)]

    def test_cleared_plan_rebuilds_on_next_use(self):
        grid = Grid.for_bandlimit(6)
        first = get_plan("fast", 6, grid)
        clear_plan_cache()
        rebuilt = get_plan("fast", 6, grid)
        assert rebuilt is not first
        np.testing.assert_array_equal(rebuilt._ana_ops[0], first._ana_ops[0])
        assert plan_cache_stats()["misses"] == 1

    def test_plan_bytes_are_fixed_at_insertion(self):
        """Plans are built eagerly: using one never grows its footprint.

        ``sht.plan_bytes`` reads the cache right after the build on the
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

    def test_hit_and_miss_counts_stay_exact_under_8_threads(self):
        """Every lookup counts once: the one kept build is the only miss,
        and a discarded duplicate build counts as a hit."""
        grid = Grid.for_bandlimit(6)
        n_threads, per_thread = 8, 50
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(
                lambda _: [get_plan("fast", 6, grid) for _ in range(per_thread)],
                range(n_threads),
            ))
        stats = plan_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == n_threads * per_thread - 1

    def test_clear_resets_the_counts(self):
        grid = Grid.for_bandlimit(4)
        get_plan("fast", 4, grid)
        get_plan("fast", 4, grid)
        assert (plan_cache_stats()["hits"], plan_cache_stats()["misses"]) == (1, 1)
        clear_plan_cache()
        stats = plan_cache_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 0, 0)

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
        grid = fitted_emulator.training_summary.grid
        key = (fitted_emulator.config.lmax, grid.ntheta, grid.nphi)
        assert stats["keys"].count(key) == 1
        # Duplicate concurrent builds may race, but exactly one entry
        # serves every subsequent lookup.
        assert sum(1 for k in stats["keys"] if k == key) == 1

    def test_concurrent_gets_of_many_keys_stay_consistent(self):
        """Threads racing over four keys each get the right plan, and the
        cache ends with one entry per key whose bytes are those plans'."""
        from repro.sht.plancache import _plan_nbytes

        grids = {lmax: Grid.for_bandlimit(lmax) for lmax in (4, 5, 6, 7)}
        errors = []

        def worker(i):
            lmax = 4 + (i % 4)
            try:
                plan = get_plan("fast", lmax, grids[lmax])
                assert plan.lmax == lmax and plan.grid == grids[lmax]
                return plan
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=8) as pool:
            plans = list(pool.map(worker, range(64)))
        assert not errors
        for i, plan in enumerate(plans):
            assert plan is plans[i % 4]
        stats = plan_cache_stats()
        assert stats["size"] == 4
        assert sorted(key[0] for key in stats["keys"]) == [4, 5, 6, 7]
        assert stats["hits"] + stats["misses"] == 64 and stats["misses"] == 4
        assert stats["bytes"] == sum(_plan_nbytes(plans[i]) for i in range(4))

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
