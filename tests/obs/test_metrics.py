"""Metrics registry: instruments, naming, snapshots, thread atomicity."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    counter_add,
    gauge_set,
    get_registry,
    metrics_snapshot,
    observe,
    reset_metrics,
)
from repro.obs.metrics import HISTOGRAM_WINDOW

#: Registry write method per instrument kind, with a value to write.
WRITERS = {
    "counter": lambda registry, name: registry.add(name),
    "gauge": lambda registry, name: registry.set_gauge(name, 1.0),
    "histogram": lambda registry, name: registry.observe(name, 1.0),
}


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestInstruments:
    def test_counters_accumulate(self, registry):
        registry.add("test.counter")
        registry.add("test.counter", 2.5)
        assert registry.counter("test.counter") == 3.5
        assert registry.counter("test.absent", default=-1.0) == -1.0

    def test_gauges_last_write_wins(self, registry):
        registry.set_gauge("test.gauge", 4)
        registry.set_gauge("test.gauge", 7.5)
        assert registry.gauge("test.gauge") == 7.5

    def test_histogram_summary_statistics(self, registry):
        for value in [1.0, 2.0, 3.0, 4.0]:
            registry.observe("test.hist", value)
        summary = registry.snapshot()["histograms"]["test.hist"]
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 3.0  # nearest-rank over the window

    def test_malformed_names_are_rejected(self, registry):
        for bad in ("hits", "Serving.hits", "serving..hits", "serving.Hits", "",
                    "serving.hits\n"):
            with pytest.raises(ValueError, match="dotted lowercase"):
                registry.add(bad)

    def test_cross_kind_reuse_is_rejected(self, registry):
        registry.add("test.name")
        with pytest.raises(ValueError, match="different instrument kind"):
            registry.observe("test.name", 1.0)
        with pytest.raises(ValueError, match="different instrument kind"):
            registry.set_gauge("test.name", 1.0)

    def test_snapshot_is_sorted_and_detached(self, registry):
        registry.add("b.two")
        registry.add("a.one")
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a.one", "b.two"]
        snap["counters"]["a.one"] = 99.0
        assert registry.counter("a.one") == 1.0

    def test_reset_by_prefix_spares_other_components(self, registry):
        registry.add("sht.plan_cache.hits")
        registry.add("sht.plan_cache.misses")
        registry.observe("sht.forward.seconds", 0.1)
        registry.reset("sht.plan_cache")
        assert registry.counter("sht.plan_cache.hits") == 0.0
        assert registry.snapshot()["histograms"]["sht.forward.seconds"]["count"] == 1

    def test_full_reset_clears_every_kind(self, registry):
        registry.add("a.counter")
        registry.set_gauge("a.gauge", 1.0)
        registry.observe("a.hist", 1.0)
        registry.reset()
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


class TestNaming:
    @pytest.mark.parametrize(
        "name",
        ["sht.plan_cache.hits", "a.b", "serve.get.seconds", "x_1.y_2.z_3"],
    )
    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_dotted_lowercase_names_are_accepted(self, registry, kind, name):
        WRITERS[kind](registry, name)
        section = {"counter": "counters", "gauge": "gauges",
                   "histogram": "histograms"}[kind]
        assert list(registry.snapshot()[section]) == [name]

    @pytest.mark.parametrize("kind", ["gauge", "histogram"])
    def test_gauges_and_histograms_validate_names_too(self, registry, kind):
        for bad in ("hits", "Serving.hits", "serving..hits", ".serving.hits",
                    "serving.hits.", "serving-hits.x", "serving.hits\n"):
            with pytest.raises(ValueError, match="dotted lowercase"):
                WRITERS[kind](registry, bad)

    def test_a_rejected_name_leaves_no_instrument_behind(self, registry):
        registry.add("docs.demo")
        with pytest.raises(ValueError, match="dotted lowercase"):
            registry.add("docs.demo\n")
        assert registry.snapshot()["counters"] == {"docs.demo": 1.0}

    @pytest.mark.parametrize("first", sorted(WRITERS))
    @pytest.mark.parametrize("second", sorted(WRITERS))
    def test_a_name_keeps_its_first_kind(self, registry, first, second):
        WRITERS[first](registry, "test.bound")
        if first == second:
            WRITERS[second](registry, "test.bound")
        else:
            with pytest.raises(ValueError, match="different instrument kind"):
                WRITERS[second](registry, "test.bound")

    def test_reset_frees_a_name_for_another_kind(self, registry):
        registry.add("test.rebound")
        registry.reset("test.rebound")
        registry.observe("test.rebound", 2.0)
        assert registry.snapshot()["histograms"]["test.rebound"]["count"] == 1


class TestHistograms:
    def test_one_sample_is_every_percentile(self, registry):
        registry.observe("test.single", 0.25)
        summary = registry.snapshot()["histograms"]["test.single"]
        for key in ("min", "max", "mean", "p50", "p90", "p99", "sum"):
            assert summary[key] == 0.25, key
        assert summary["count"] == 1

    def test_nearest_rank_percentiles_over_one_to_a_hundred(self, registry):
        for value in range(1, 101):
            registry.observe("test.ranks", value)
        summary = registry.snapshot()["histograms"]["test.ranks"]
        assert (summary["p50"], summary["p90"], summary["p99"]) == (51.0, 90.0, 99.0)
        assert summary["sum"] == 5050.0

    def test_percentiles_follow_the_window_totals_follow_every_sample(
        self, registry
    ):
        # The first window of large values slides out; the exact totals
        # still count it.
        for _ in range(HISTOGRAM_WINDOW):
            registry.observe("test.window", 1000.0)
        for _ in range(HISTOGRAM_WINDOW):
            registry.observe("test.window", 1.0)
        summary = registry.snapshot()["histograms"]["test.window"]
        assert summary["count"] == 2 * HISTOGRAM_WINDOW
        assert summary["max"] == 1000.0
        assert summary["sum"] == HISTOGRAM_WINDOW * 1001.0
        assert summary["p50"] == summary["p99"] == 1.0

    def test_values_are_stored_as_floats(self, registry):
        registry.observe("test.ints", 3)
        registry.set_gauge("test.level", 4)
        snap = registry.snapshot()
        assert type(snap["histograms"]["test.ints"]["sum"]) is float
        assert type(snap["gauges"]["test.level"]) is float


class TestSnapshots:
    def test_snapshot_round_trips_through_json(self, registry):
        registry.add("sht.plan_cache.hits", 42)
        registry.set_gauge("serving.queue.depth", 3.0)
        for value in (0.001, 0.002, 0.004, 0.008):
            registry.observe("serve.get.seconds", value)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_reads_never_create_instruments(self, registry):
        registry.add("test.present")
        before = registry.snapshot()
        assert registry.counter("test.absent") == 0.0
        assert registry.gauge("test.absent.gauge", default=5.0) == 5.0
        for _ in range(3):
            registry.snapshot()
        assert registry.snapshot() == before

    def test_reset_prefix_stops_at_a_segment_boundary(self, registry):
        registry.add("sht.plan_cache.hits")
        registry.add("sht.plan.builds")
        registry.add("sht.planner.calls")
        registry.reset("sht.plan")
        assert list(registry.snapshot()["counters"]) == [
            "sht.plan_cache.hits", "sht.planner.calls",
        ]
        registry.reset("no.such.prefix")
        assert len(registry.snapshot()["counters"]) == 2

    def test_registries_are_independent(self, registry):
        other = MetricsRegistry()
        registry.add("serving.requests", 2)
        other.add("serving.requests")
        assert registry.counter("serving.requests") == 2.0
        assert other.counter("serving.requests") == 1.0
        # Kinds are bound per registry, not per process.
        other.reset()
        other.set_gauge("serving.requests", 1.0)
        assert registry.counter("serving.requests") == 2.0


class TestConcurrency:
    def test_counter_adds_are_atomic_across_8_threads(self, registry):
        n_threads, n_each = 8, 10_000
        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait()
            for _ in range(n_each):
                registry.add("test.atomic")

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("test.atomic") == n_threads * n_each

    def test_concurrent_mixed_instruments_survive(self, registry):
        barrier = threading.Barrier(4)

        def writer(index):
            barrier.wait()
            for step in range(2_000):
                registry.add(f"test.worker_{index}.events")
                registry.observe(f"test.worker_{index}.seconds", step * 1e-6)
                registry.set_gauge(f"test.worker_{index}.depth", step)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = registry.snapshot()
        for index in range(4):
            assert snap["counters"][f"test.worker_{index}.events"] == 2_000
            assert snap["histograms"][f"test.worker_{index}.seconds"]["count"] == 2_000
            assert snap["gauges"][f"test.worker_{index}.depth"] == 1_999

    def test_snapshots_taken_during_writes_are_consistent(self, registry):
        # A reader never sees a histogram's count ahead of its counter
        # twin, and counts never go backwards between snapshots.
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                registry.add("test.live.events")
                registry.observe("test.live.seconds", 1e-6)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            seen = []
            for _ in range(200):
                snap = registry.snapshot()
                seen.append(snap["counters"].get("test.live.events", 0.0))
                hist = snap["histograms"].get("test.live.seconds")
                if hist is not None:
                    assert hist["count"] in (seen[-1], seen[-1] - 1)
        finally:
            stop.set()
            thread.join()
        assert seen == sorted(seen)


class TestGlobalRegistry:
    def test_module_helpers_hit_the_process_registry(self):
        reset_metrics("test.global")
        counter_add("test.global.events", 2.0)
        assert get_registry().counter("test.global.events") == 2.0
        reset_metrics("test.global")
        assert get_registry().counter("test.global.events") == 0.0

    def test_gauge_and_histogram_helpers_reach_the_snapshot(self):
        reset_metrics("test.global")
        gauge_set("test.global.depth", 3)
        observe("test.global.seconds", 0.5)
        snap = metrics_snapshot()
        assert snap["gauges"]["test.global.depth"] == 3.0
        assert snap["histograms"]["test.global.seconds"]["count"] == 1
        reset_metrics("test.global")
        assert "test.global.depth" not in metrics_snapshot()["gauges"]
