"""tracereport: self-time attribution, sibling merging, layer coverage."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.obs import disable, tracing
from repro.serving.request import FieldRequest
from repro.serving.service import EmulationService
from repro.sht.grid import Grid
from repro.sht.plancache import clear_plan_cache, get_plan
from repro.storage.chunkstore import ChunkStore
from tools.tracereport import _percentile, aggregate, coverage, load_trace, main, render_table


@pytest.fixture(autouse=True)
def clean_tracing():
    disable()
    yield
    disable()


def _record(name, span_id, parent_id, seconds, pid=100, start=0.0):
    return {
        "name": name, "span_id": span_id, "parent_id": parent_id,
        "thread": 1, "pid": pid, "start": start, "seconds": seconds,
        "attrs": {},
    }


class TestAggregate:
    def test_self_time_subtracts_direct_children(self):
        records = [
            _record("outer", 1, None, 1.0),
            _record("mid", 2, 1, 0.6),
            _record("leaf", 3, 2, 0.25),
            _record("leaf", 4, 2, 0.15),
        ]
        rows = {row["name"]: row for row in aggregate(records)}
        # outer spends 0.6 inside mid, mid 0.4 inside its two leaves;
        # leaves have no children, so self == total.
        assert rows["outer"]["self_s"] == pytest.approx(0.4)
        assert rows["mid"]["self_s"] == pytest.approx(0.2)
        assert rows["leaf"]["self_s"] == pytest.approx(0.4)
        assert rows["leaf"]["calls"] == 2
        assert rows["leaf"]["total_s"] == pytest.approx(0.4)

    def test_child_attribution_is_keyed_per_process(self):
        # Same span ids in two processes must not cross-attribute: the
        # pid-200 child hangs off span 1 *in pid 200*, not pid 100's.
        records = [
            _record("parent", 1, None, 1.0, pid=100),
            _record("parent", 1, None, 1.0, pid=200),
            _record("child", 2, 1, 0.5, pid=200),
        ]
        rows = {row["name"]: row for row in aggregate(records)}
        assert rows["parent"]["self_s"] == pytest.approx(1.0 + 0.5)
        assert rows["child"]["self_s"] == pytest.approx(0.5)

    def test_self_time_clamps_at_zero_for_concurrent_children(self):
        # Threaded children inside one span can sum past their parent's
        # wall time; self time clamps instead of going negative.
        records = [
            _record("batch", 1, None, 1.0),
            _record("worker", 2, 1, 0.8),
            _record("worker", 3, 1, 0.9),
        ]
        rows = {row["name"]: row for row in aggregate(records)}
        assert rows["batch"]["self_s"] == 0.0

    def test_rows_sorted_by_self_time_then_name(self):
        records = [
            _record("b.slow", 1, None, 2.0),
            _record("a.tied", 2, None, 1.0),
            _record("b.tied", 3, None, 1.0),
        ]
        assert [row["name"] for row in aggregate(records)] == [
            "b.slow", "a.tied", "b.tied",
        ]

    def test_percentiles_over_single_call(self):
        rows = aggregate([_record("once", 1, None, 0.5)])
        (row,) = rows
        assert row["p50_s"] == row["p90_s"] == row["p99_s"] == 0.5
        assert row["mean_s"] == row["max_s"] == 0.5


class TestPercentiles:
    """Latency percentiles come from traces alone: nearest rank over
    every recorded duration, whatever order the records arrive in."""

    @pytest.mark.parametrize(
        "q, expected",
        [(0.0, 1.0), (0.25, 26.0), (0.5, 51.0), (0.9, 90.0), (0.99, 99.0),
         (1.0, 100.0)],
    )
    def test_nearest_rank_over_one_to_a_hundred(self, q, expected):
        ordered = [float(value) for value in range(1, 101)]
        assert _percentile(ordered, q) == expected

    def test_row_percentiles_do_not_depend_on_record_order(self):
        durations = [float(value) for value in range(1, 101)]
        shuffled = list(durations)
        np.random.default_rng(0).shuffle(shuffled)
        rows = [
            aggregate([_record("op", i + 1, None, s) for i, s in enumerate(order)])
            for order in (durations, shuffled)
        ]
        assert rows[0] == rows[1]
        (row,) = rows[0]
        assert (row["p50_s"], row["p90_s"], row["p99_s"], row["max_s"]) == (
            51.0, 90.0, 99.0, 100.0,
        )
        assert row["mean_s"] == pytest.approx(50.5)

    def test_percentiles_follow_every_duration_not_a_recent_window(self):
        # A thousand slow calls followed by a thousand fast ones: the
        # slow half still sets p90, and the mean counts every call.
        records = [_record("op", i + 1, None, 1.0) for i in range(1000)]
        records += [_record("op", i + 1001, None, 0.001) for i in range(1000)]
        (row,) = aggregate(records)
        assert row["calls"] == 2000
        assert row["p90_s"] == row["max_s"] == 1.0
        assert row["mean_s"] == pytest.approx((1000 * 1.0 + 1000 * 0.001) / 2000)


class TestLoadTrace:
    def test_merges_numeric_pid_siblings_only(self, tmp_path):
        base = tmp_path / "trace.jsonl"
        base.write_text(json.dumps(_record("main", 1, None, 1.0)) + "\n")
        (tmp_path / "trace.jsonl.4242").write_text(
            json.dumps(_record("worker", 1, None, 0.5, pid=4242)) + "\n"
        )
        (tmp_path / "trace.jsonl.bak").write_text("not json\n")
        names = sorted(rec["name"] for rec in load_trace(base))
        assert names == ["main", "worker"]

    def test_skips_blank_lines(self, tmp_path):
        base = tmp_path / "trace.jsonl"
        base.write_text("\n" + json.dumps(_record("only", 1, None, 1.0)) + "\n\n")
        assert len(load_trace(base)) == 1

    def test_tolerates_torn_trailing_line(self, tmp_path):
        # A campaign worker killed mid-write leaves a truncated last
        # record; the report must keep the intact spans and count the
        # skip instead of crashing.
        base = tmp_path / "trace.jsonl"
        intact = json.dumps(_record("kept", 1, None, 1.0))
        torn = json.dumps(_record("torn", 2, 1, 0.5))[:-17]
        base.write_text(intact + "\n" + torn + "\n")
        records = load_trace(base)
        assert [rec["name"] for rec in records] == ["kept"]
        assert records.skipped == 1

    def test_counts_torn_lines_across_siblings(self, tmp_path):
        base = tmp_path / "trace.jsonl"
        base.write_text(json.dumps(_record("main", 1, None, 1.0)) + "\n{tor")
        (tmp_path / "trace.jsonl.77").write_text(
            json.dumps(_record("worker", 1, None, 0.5, pid=77)) + "\n[1, 2"
        )
        records = load_trace(base)
        assert sorted(rec["name"] for rec in records) == ["main", "worker"]
        assert records.skipped == 2

    def test_non_object_json_line_is_skipped(self, tmp_path):
        base = tmp_path / "trace.jsonl"
        base.write_text('"just a string"\n' + json.dumps(_record("ok", 1, None, 1.0)) + "\n")
        records = load_trace(base)
        assert [rec["name"] for rec in records] == ["ok"]
        assert records.skipped == 1


class TestRendering:
    def test_table_has_header_rule_and_aligned_names(self):
        rows = aggregate([
            _record("a.long_name", 1, None, 1.0),
            _record("b", 2, None, 0.5),
        ])
        lines = render_table(rows).splitlines()
        assert lines[0].startswith("name")
        assert "self_s" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].startswith("a.long_name")

    def test_main_json_mode(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps(_record("solo", 1, None, 1.0)) + "\n")
        assert main([str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == 1
        assert payload["rows"][0]["name"] == "solo"

    @pytest.mark.parametrize(
        "sort, expected",
        [("self", ["slow", "busy", "alpha"]),
         ("total", ["busy", "slow", "alpha"]),
         ("calls", ["busy", "alpha", "slow"]),
         ("name", ["alpha", "busy", "slow"])],
    )
    def test_main_sort_orders_rows(self, tmp_path, capsys, sort, expected):
        # busy: 3 calls, 1.2 s total, 0.3 s self; slow: 1 call, 0.9 s;
        # alpha: 2 calls, 0.2 s.
        records = [
            _record("busy", 1, None, 0.5), _record("busy", 2, None, 0.4),
            _record("busy", 3, None, 0.3), _record("slow", 4, 1, 0.9),
            _record("alpha", 5, None, 0.1), _record("alpha", 6, None, 0.1),
        ]
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main([str(trace), "--json", "--sort", sort]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["name"] for row in rows] == expected

    def test_main_fails_on_empty_trace(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert main([str(trace)]) == 1
        assert "no span records" in capsys.readouterr().err

    def test_main_reports_skipped_corrupt_lines(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps(_record("solo", 1, None, 1.0)) + '\n{"torn": ')
        assert main([str(trace)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 corrupt line(s)" in captured.err
        assert "1 corrupt skipped" in captured.out

    def test_main_json_mode_carries_skip_count(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps(_record("solo", 1, None, 1.0)) + "\n{bad")
        assert main([str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == 1
        assert payload["skipped"] == 1


class TestCoverage:
    def test_the_union_of_direct_children_clipped_to_the_span(self):
        records = [
            _record("batch", 1, None, 1.0),
            _record("half", 2, 1, 0.6, start=0.0),   # two halves overlap:
            _record("half", 3, 1, 0.6, start=0.1),   # union [0, 0.7], not 1.2
            _record("leaf", 4, 2, 0.5, start=0.0),   # a grandchild adds nothing
            _record("tail", 5, 1, 0.1, start=0.8),
            _record("late", 6, 1, 0.25, start=0.95),  # clipped at the parent's end
            _record("batch", 7, None, 0.5, start=2.0),  # no children: nothing covered
            _record("stray", 8, 7, 0.4, start=2.0, pid=200),  # another process's span 7
        ]
        rows = {row["name"]: row for row in coverage(records)}
        batch = rows["batch"]
        assert batch["calls"] == 2
        assert batch["wall_s"] == pytest.approx(1.5)
        assert batch["covered_s"] == pytest.approx(0.7 + 0.1 + 0.05)
        assert batch["coverage"] == pytest.approx(0.85 / 1.5)
        assert rows["half"]["covered_s"] == pytest.approx(0.5)
        assert rows["leaf"]["coverage"] == 0.0
        # Largest uncovered time first: 0.7 s of the halves, 0.65 s of batch.
        assert [row["name"] for row in coverage(records)][:3] == ["half", "batch", "leaf"]

    def test_a_span_of_no_duration_reads_zero(self):
        (row,) = coverage([_record("instant", 1, None, 0.0)])
        assert row["coverage"] == 0.0

    def test_main_coverage_table_and_json(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps(r) + "\n" for r in [
            _record("outer", 1, None, 1.0), _record("inner", 2, 1, 0.4),
        ]))
        assert main([str(trace), "--coverage"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["name", "calls", "wall_s", "covered_s", "coverage"]
        assert lines[3].split()[0] == "outer" and lines[3].split()[-1] == "0.400000"
        assert main([str(trace), "--coverage", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["name"] for row in rows] == ["outer", "inner"]

    def test_a_split_transform_is_one_tree_its_halves_cover(self, tmp_path):
        """At L = 128 a 64-slice inverse runs as two halves on two threads;
        the trace has one root, and the union of the halves' stage spans
        covers the root's wall (the best of three calls, for a busy host)."""
        plan = get_plan("fast", 128, Grid.for_bandlimit(128))
        coeffs = plan.random_coefficients(np.random.default_rng(0), shape=(64,))
        shares = []
        for attempt in range(3):
            trace = tmp_path / f"split{attempt}.jsonl"
            with tracing(trace):
                plan.inverse(coeffs)
            records = load_trace(trace)
            roots = [r for r in records if r["parent_id"] is None]
            assert [r["name"] for r in roots] == ["sht.inverse"]
            if roots[0]["attrs"]["parts"] == 1:
                pytest.skip("this process may run on one CPU: nothing is split")
            assert len({r["thread"] for r in records}) == 2
            rows = {row["name"]: row for row in coverage(records)}
            shares.append(rows["sht.inverse"]["coverage"])
        assert max(shares) >= 0.95, shares


class TestLayerCoverage:
    def test_a_traced_fit_names_every_stage(self, small_ensemble, tmp_path):
        """Every stage of the spectral fit is a system-owned span nested
        under ``fit.spectral``, so the report attributes the fit's time."""
        trace = tmp_path / "fit.jsonl"
        with tracing(trace):
            repro.fit(small_ensemble, lmax=8, var_order=1, tile_size=16, rho_grid=(0.5,))
        records = load_trace(trace)
        (spectral,) = [r for r in records if r["name"] == "fit.spectral"]
        stages = ("fit.analysis", "fit.var", "fit.covariance", "fit.cholesky", "fit.truncation")
        nested = {r["name"] for r in records if r["parent_id"] == spectral["span_id"]}
        assert set(stages) <= nested
        names = {row["name"] for row in aggregate(records)}
        assert set(stages) | {"fit.trend", "fit.scale", "facade.fit"} <= names

    def test_one_traced_workload_profiles_every_layer(
        self, fitted_emulator, small_grid, tmp_path, capsys
    ):
        """A single trace file captures spans from the facade, SHT,
        plan cache, serving, and chunk-store layers, and tracereport
        aggregates them into one profile."""
        clear_plan_cache()
        trace = tmp_path / "trace.jsonl"
        with tracing(trace):
            get_plan("fast", 8, small_grid)
            repro.emulate(fitted_emulator, n_realizations=1, n_times=4,
                          rng=np.random.default_rng(0))
            service = EmulationService(fitted_emulator, seed=1)
            service.get(FieldRequest("ssp-low", realization=0,
                                     year_start=0, year_stop=1))
            store = ChunkStore(tmp_path / "store")
            store.put("addr-1", np.arange(6.0).reshape(2, 3))
            store.get("addr-1")

        rows = aggregate(load_trace(trace))
        names = {row["name"] for row in rows}
        for expected in ("facade.emulate", "sht.inverse",
                         "sht.plan_cache.build", "serve.get",
                         "chunkstore.put", "chunkstore.get",
                         "chunkstore.commit"):
            assert expected in names, f"missing {expected} in {sorted(names)}"
        # sht.inverse nests under the facade/serving spans, so the
        # parents' self time excludes it.
        facade = next(r for r in rows if r["name"] == "facade.emulate")
        assert facade["self_s"] < facade["total_s"]
        assert main([str(trace), "--sort", "total", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "names" in out.splitlines()[0]
        # summary line + header + rule + the 3 requested rows
        assert len(out.splitlines()) == 3 + 3
