"""Tracing spans: nesting, cross-thread linking, sinks, toggle safety."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    clear_trace,
    current_span,
    disable,
    enable,
    enabled,
    get_registry,
    span,
    trace_records,
    tracing,
)


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
            with span("test_trace.inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None
        records = {rec["name"]: rec for rec in trace_records()}
        assert records["test_trace.inner"]["parent_id"] == outer.span_id
        assert records["test_trace.outer"]["parent_id"] is None

    def test_explicit_parent_links_across_threads(self):
        enable()
        with span("test_trace.batch") as batch:
            def work():
                with span("test_trace.run", parent=batch):
                    pass
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        child = next(r for r in trace_records() if r["name"] == "test_trace.run")
        assert child["parent_id"] == batch.span_id

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

    def test_explicit_parent_wins_over_the_enclosing_span(self):
        enable()
        with span("test_trace.anchor") as anchor:
            pass
        with span("test_trace.enclosing"):
            with span("test_trace.linked", parent=anchor):
                pass
        records = {rec["name"]: rec for rec in trace_records()}
        assert records["test_trace.linked"]["parent_id"] == anchor.span_id

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
        before = (get_registry().snapshot()["histograms"]
                  .get("test_trace.failing.seconds", {"count": 0})["count"])
        with pytest.raises(RuntimeError, match="boom"):
            with span("test_trace.failing"):
                raise RuntimeError("boom")
        assert current_span() is None
        assert [rec["name"] for rec in trace_records()] == ["test_trace.failing"]
        after = get_registry().snapshot()["histograms"]["test_trace.failing.seconds"]
        assert after["count"] == before + 1


class TestAlwaysMeasuring:
    def test_seconds_and_histograms_work_while_disabled(self):
        assert not enabled()
        with span("test_trace.measured") as sp:
            pass
        assert sp.seconds > 0.0
        summary = get_registry().snapshot()["histograms"]
        assert summary["test_trace.measured.seconds"]["count"] >= 1
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

    @pytest.mark.parametrize("value", ["1", "true", "yes"])
    def test_truthy_values_trace_in_memory_only(self, value, tmp_path):
        state = self._probe(value, tmp_path)
        assert state == {"enabled": True, "names": ["test_trace.env"]}
        assert list(tmp_path.iterdir()) == []

    def test_a_path_value_writes_that_file(self, tmp_path):
        state = self._probe("env_trace.jsonl", tmp_path)
        assert state["enabled"] is True
        lines = (tmp_path / "env_trace.jsonl").read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["test_trace.env"]
