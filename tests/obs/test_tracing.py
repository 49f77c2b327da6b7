"""Tracing spans: per-thread nesting, sinks, toggle safety."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import threading
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    clear_trace,
    disable,
    enabled,
    span,
    trace_records,
    tracing,
)
from repro.obs.tracing import _enable as enable

# ``repro.obs.tracing`` the module, not the ``tracing()`` context
# manager that ``repro.obs`` re-exports under the same name.
tracing_module = importlib.import_module("repro.obs.tracing")


@pytest.fixture(autouse=True)
def clean_tracing():
    """Every test starts and ends with tracing off and an empty buffer."""
    disable()
    clear_trace()
    yield
    disable()
    clear_trace()


class TestNesting:
    def test_spans_nest_within_a_thread(self):
        enable()
        with span("test_trace.outer") as outer:
            with span("test_trace.inner"):
                pass
            with span("test_trace.sibling"):  # inner has closed
                pass
        with span("test_trace.next_root"):  # outer has closed
            pass
        records = {rec["name"]: rec for rec in trace_records()}
        assert records["test_trace.inner"]["parent_id"] == outer.span_id
        assert records["test_trace.sibling"]["parent_id"] == outer.span_id
        assert records["test_trace.outer"]["parent_id"] is None
        assert records["test_trace.next_root"]["parent_id"] is None

    def test_8_thread_nesting_keeps_parent_chains_thread_local(self):
        n_threads = 8
        enable()
        barrier = threading.Barrier(n_threads)

        def work(index):
            barrier.wait()
            with span(f"test_trace.root_{index}"):
                for depth in range(3):
                    with span(f"test_trace.child_{index}_{depth}"):
                        pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        records = {rec["name"]: rec for rec in trace_records()}
        assert len(records) == n_threads * 4
        for index in range(n_threads):
            root = records[f"test_trace.root_{index}"]
            assert root["parent_id"] is None
            for depth in range(3):
                child = records[f"test_trace.child_{index}_{depth}"]
                # Each child nests under its own thread's root, never
                # under another thread's concurrently-open spans.
                assert child["parent_id"] == root["span_id"]
                assert child["thread"] == root["thread"]

    def test_a_span_on_another_thread_is_a_root(self):
        """A thread's stack starts empty: a span it opens while the
        caller's span is open has no parent, and the caller's nesting
        carries on unaffected."""
        enable()

        def work():
            with span("test_trace.worker"):
                pass

        with span("test_trace.caller") as caller:
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
            with span("test_trace.after"):
                pass
        records = {rec["name"]: rec for rec in trace_records()}
        assert records["test_trace.worker"]["parent_id"] is None
        assert records["test_trace.worker"]["thread"] != records["test_trace.caller"]["thread"]
        assert records["test_trace.after"]["parent_id"] == caller.span_id

    def test_child_interval_lies_inside_its_parent(self):
        enable()
        with span("test_trace.parent"):
            with span("test_trace.child"):
                pass
        records = {rec["name"]: rec for rec in trace_records()}
        parent, child = records["test_trace.parent"], records["test_trace.child"]
        assert 0.0 <= parent["start"] <= child["start"]
        assert (child["start"] + child["seconds"]
                <= parent["start"] + parent["seconds"])
        assert child["span_id"] > parent["span_id"]

    def test_a_raising_body_still_closes_and_records_its_span(self):
        enable()
        with pytest.raises(RuntimeError, match="boom"):
            with span("test_trace.failing"):
                raise RuntimeError("boom")
        with span("test_trace.after_failure"):  # the failed span was popped
            pass
        records = trace_records()
        assert [rec["name"] for rec in records] == [
            "test_trace.failing", "test_trace.after_failure",
        ]
        assert records[0]["seconds"] > 0.0
        assert records[1]["parent_id"] is None


class TestAlwaysMeasuring:
    def test_seconds_work_while_disabled(self):
        assert not enabled()
        with span("test_trace.measured") as sp:
            pass
        assert sp.seconds > 0.0
        assert trace_records() == []

    def test_set_and_elapsed(self):
        with span("test_trace.attrs", fixed=1) as sp:
            assert sp.elapsed() >= 0.0
            sp.set(bytes=512, outcome="hit")
        assert sp.attrs == {"fixed": 1, "bytes": 512, "outcome": "hit"}

    def test_set_returns_the_span_for_chaining(self):
        with span("test_trace.chain") as sp:
            assert sp.set(a=1).set(b=2) is sp
        assert sp.attrs == {"a": 1, "b": 2}


    def test_set_overrides_an_opening_attribute(self):
        with span("test_trace.override", outcome="pending") as sp:
            sp.set(outcome="hit")
        assert sp.attrs == {"outcome": "hit"}

    def test_elapsed_grows_and_seconds_covers_it(self):
        with span("test_trace.clock") as sp:
            first = sp.elapsed()
            second = sp.elapsed()
        assert 0.0 <= first <= second <= sp.seconds


class TestConcurrency:
    """Spans recorded from many threads at once are neither lost nor torn."""

    N_THREADS = 8
    PER_THREAD = 250

    def _run_threads(self, work):
        barrier = threading.Barrier(self.N_THREADS)

        def run(index):
            barrier.wait()
            work(index)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)

    def test_every_span_from_8_threads_is_recorded_once(self):
        enable()

        def work(index):
            for step in range(self.PER_THREAD):
                with span("test_trace.concurrent", worker=index, step=step):
                    pass

        self._run_threads(work)
        records = trace_records()
        assert len(records) == self.N_THREADS * self.PER_THREAD
        assert len({rec["span_id"] for rec in records}) == len(records)
        seen = {(rec["attrs"]["worker"], rec["attrs"]["step"]) for rec in records}
        assert seen == {(w, s) for w in range(self.N_THREADS)
                        for s in range(self.PER_THREAD)}

    def test_reads_during_writes_see_whole_records_in_close_order(self):
        enable()
        snapshots = []

        def work(index):
            for step in range(self.PER_THREAD):
                with span("test_trace.written", step=step):
                    pass
                if index == 0 and step % 25 == 0:
                    snapshots.append(trace_records())

        self._run_threads(work)
        final = trace_records()
        for snapshot in snapshots:
            # Each read is a prefix of the final buffer: nothing torn,
            # nothing reordered, nothing later removed.
            assert snapshot == final[: len(snapshot)]
        assert [len(s) for s in snapshots] == sorted(len(s) for s in snapshots)

    def test_toggling_while_8_threads_trace_never_raises(self):
        stop = threading.Event()

        def toggle():
            while not stop.is_set():
                enable()
                disable()

        toggler = threading.Thread(target=toggle)
        toggler.start()
        try:
            def work(index):
                for _ in range(self.PER_THREAD):
                    with span("test_trace.toggled"):
                        pass

            self._run_threads(work)
        finally:
            stop.set()
            toggler.join(timeout=60.0)
        assert not toggler.is_alive()
        records = trace_records()
        assert len(records) <= self.N_THREADS * self.PER_THREAD
        assert {rec["name"] for rec in records} <= {"test_trace.toggled"}


class _Opaque:
    def __str__(self) -> str:
        return "opaque-object"


class TestAttributeValues:
    @pytest.mark.parametrize(
        "value, recorded",
        [
            (None, None),
            (True, True),
            (3, 3),
            ("hit", "hit"),
            ((1, (2, 3)), [1, [2, 3]]),
            (np.float32(0.5), 0.5),
            (np.array(4), 4),
            (np.arange(3), str(np.arange(3))),
            (_Opaque(), "opaque-object"),
        ],
        ids=["none", "bool", "int", "str", "nested-tuple", "numpy-scalar",
             "zero-d-array", "vector", "object"],
    )
    def test_attributes_are_recorded_json_native(self, value, recorded):
        enable()
        with span("test_trace.value", value=value):
            pass
        (record,) = trace_records()
        assert record["attrs"]["value"] == recorded
        assert json.loads(json.dumps(record))["attrs"]["value"] == recorded


class TestSinks:
    def test_jsonl_file_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing(path) as active:
            assert active == str(path)
            with span("test_trace.io", shape=(3, 4), n=np.int64(7)):
                pass
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["name"] for rec in lines] == ["test_trace.io"]
        record = lines[0]
        assert set(record) == {
            "name", "span_id", "parent_id", "thread", "pid", "start",
            "seconds", "attrs",
        }
        # Attributes arrive JSON-native: numpy scalars unwrap, tuples
        # become lists.
        assert record["attrs"] == {"shape": [3, 4], "n": 7}

    def test_tracing_contextmanager_disables_on_exit(self):
        with tracing():
            assert enabled()
        assert not enabled()

    def test_memory_buffer_and_clear(self):
        enable()
        with span("test_trace.buffered"):
            pass
        assert len(trace_records()) == 1
        clear_trace()
        assert trace_records() == []

    def test_disable_mid_span_drops_the_record_quietly(self):
        enable()
        sp = span("test_trace.inflight")
        sp.__enter__()
        disable()
        sp.__exit__(None, None, None)  # must not raise
        assert trace_records() == []

    def test_reenable_replaces_the_sink(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        enable(first)
        with span("test_trace.first"):
            pass
        enable(second)
        with span("test_trace.second"):
            pass
        disable()
        assert "test_trace.first" in first.read_text()
        assert "test_trace.second" in second.read_text()
        assert "test_trace.second" not in first.read_text()

    def test_in_memory_tracing_yields_no_path(self):
        with tracing() as active:
            assert active is None
            with span("test_trace.memory"):
                pass
        assert [rec["name"] for rec in trace_records()] == ["test_trace.memory"]

    def test_disable_keeps_the_buffer_until_cleared(self):
        with tracing():
            with span("test_trace.kept"):
                pass
        with span("test_trace.untraced"):
            pass
        assert [rec["name"] for rec in trace_records()] == ["test_trace.kept"]

    def test_trace_records_is_a_copy(self):
        enable()
        with span("test_trace.copied"):
            pass
        records = trace_records()
        records.clear()
        assert len(trace_records()) == 1

    def test_the_buffer_keeps_the_newest_records(self, monkeypatch):
        monkeypatch.setattr(tracing_module, "_RECORDS", deque(maxlen=3))
        enable()
        for index in range(5):
            with span(f"test_trace.ring_{index}"):
                pass
        assert [rec["name"] for rec in trace_records()] == [
            "test_trace.ring_2", "test_trace.ring_3", "test_trace.ring_4",
        ]

    def test_file_lines_follow_close_order(self, tmp_path):
        path = tmp_path / "order.jsonl"
        with tracing(path):
            with span("test_trace.outer"):
                with span("test_trace.inner"):
                    pass
            with span("test_trace.after"):
                pass
        names = [json.loads(line)["name"]
                 for line in path.read_text().splitlines()]
        assert names == ["test_trace.inner", "test_trace.outer", "test_trace.after"]
        assert names == [rec["name"] for rec in trace_records()]


_ENV_PROBE = """
import json
from repro.obs import enabled, span, trace_records
with span("test_trace.env"):
    pass
print(json.dumps({"enabled": enabled(),
                  "names": [rec["name"] for rec in trace_records()]}))
"""


class TestEnvironmentSwitch:
    """``REPRO_TRACE`` switches tracing on at import, in a fresh process."""

    @staticmethod
    def _probe(value: str, cwd: Path) -> dict:
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, REPRO_TRACE=value,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", _ENV_PROBE], env=env, cwd=cwd,
            capture_output=True, text=True, timeout=120, check=True,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])

    @pytest.mark.parametrize("value", ["1", "true", "yes", "TRUE", "Yes"])
    def test_truthy_values_trace_in_memory_only(self, value, tmp_path):
        state = self._probe(value, tmp_path)
        assert state == {"enabled": True, "names": ["test_trace.env"]}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "FALSE", "No"])
    def test_falsy_values_leave_tracing_off(self, value, tmp_path):
        state = self._probe(value, tmp_path)
        assert state == {"enabled": False, "names": []}
        assert list(tmp_path.iterdir()) == []

    def test_a_path_value_writes_that_file(self, tmp_path):
        state = self._probe("env_trace.jsonl", tmp_path)
        assert state["enabled"] is True
        lines = (tmp_path / "env_trace.jsonl").read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["test_trace.env"]

    @pytest.mark.parametrize(
        "value", ["0.jsonl", "no-trace.jsonl", "TRUE.trace"],
    )
    def test_values_that_only_begin_like_a_switch_are_paths(self, value, tmp_path):
        state = self._probe(value, tmp_path)
        assert state == {"enabled": True, "names": ["test_trace.env"]}
        assert [p.name for p in tmp_path.iterdir()] == [value]
        lines = (tmp_path / value).read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["test_trace.env"]
