"""benchwatch: trajectory history, rolling-median gates, CLI exit codes."""

from __future__ import annotations

import json
import os

import pytest

from benchmarks._report import write_report
from tools.benchwatch import (
    MIN_HISTORY,
    WATCHLIST,
    WatchedMetric,
    append_history,
    check_report,
    load_history,
    main,
    metric_value,
)


#: The exemplar watched metric the history / gate / CLI tests drive.
_BENCHMARK = "storage"
_PATH = "cross_tier.cross_tier_boost_factor"


def _report(boost, schema=2):
    report = {
        "schema": schema,
        "benchmark": _BENCHMARK,
        "summary": {"cross_tier": {"cross_tier_boost_factor": boost}},
    }
    if schema >= 2:
        report["git"] = {"sha": "f" * 40, "branch": "main"}
        report["timestamp"] = "2026-08-08T12:00:00+00:00"
    return report


def _seed_history(history_dir, values):
    for value in values:
        append_history(str(history_dir), _report(value))


class TestMetricValue:
    def test_resolves_dotted_paths(self):
        summary = {"latency": {"speedup": 3.5}}
        assert metric_value(summary, "latency.speedup") == 3.5

    def test_absent_path_is_none(self):
        assert metric_value({}, "latency.speedup") is None
        assert metric_value({"latency": 2.0}, "latency.speedup") is None

    def test_non_numeric_is_none(self):
        assert metric_value({"speedup": "fast"}, "speedup") is None


class TestRegressionGate:
    def test_higher_is_better_direction(self):
        watched = WatchedMetric("fit", "speedup", higher_is_better=True)
        assert watched.regressed(0.9, 2.0, tolerance=0.5)
        assert not watched.regressed(1.1, 2.0, tolerance=0.5)

    def test_lower_is_better_direction(self):
        watched = WatchedMetric("x", "overhead", higher_is_better=False)
        assert watched.regressed(3.1, 2.0, tolerance=0.5)
        assert not watched.regressed(2.9, 2.0, tolerance=0.5)

    def test_abs_slack_guards_near_zero_metrics(self):
        # disabled_overhead's median is ~0: without absolute slack any
        # positive wobble would be "beyond relative tolerance".
        watched = WatchedMetric(
            "telemetry_overhead", "disabled_overhead",
            higher_is_better=False, abs_slack=0.02,
        )
        assert not watched.regressed(0.015, 0.0, tolerance=0.5)
        assert watched.regressed(0.05, 0.0, tolerance=0.5)


class TestHistory:
    def test_append_and_load_round_trip(self, tmp_path):
        _seed_history(tmp_path, [2.0, 2.1])
        entries = load_history(str(tmp_path), _BENCHMARK)
        assert [entry["metrics"][_PATH] for entry in entries] == [2.0, 2.1]
        assert entries[0]["git"]["branch"] == "main"

    def test_v1_reports_are_tolerated(self, tmp_path):
        append_history(str(tmp_path), _report(2.0, schema=1))
        (entry,) = load_history(str(tmp_path), _BENCHMARK)
        assert entry["git"] is None
        assert entry["timestamp"] is None
        assert entry["metrics"][_PATH] == 2.0

    def test_torn_history_line_is_skipped(self, tmp_path):
        _seed_history(tmp_path, [2.0])
        with open(tmp_path / f"{_BENCHMARK}.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        assert len(load_history(str(tmp_path), _BENCHMARK)) == 1


class TestCheckReport:
    def test_warming_up_never_fails(self, tmp_path):
        _seed_history(tmp_path, [2.0] * (MIN_HISTORY - 1))
        history = load_history(str(tmp_path), _BENCHMARK)
        regressions, lines = check_report(_report(0.1), history)
        assert regressions == []
        assert any("warming up" in line for line in lines)

    def test_healthy_run_passes(self, tmp_path):
        _seed_history(tmp_path, [2.0, 2.1, 1.9, 2.05])
        history = load_history(str(tmp_path), _BENCHMARK)
        regressions, _ = check_report(_report(1.95), history)
        assert regressions == []

    def test_seeded_regression_names_the_metric(self, tmp_path):
        _seed_history(tmp_path, [2.0, 2.1, 1.9, 2.05])
        history = load_history(str(tmp_path), _BENCHMARK)
        regressions, _ = check_report(_report(0.5), history)
        (message,) = regressions
        assert f"{_BENCHMARK}:{_PATH}" in message
        assert "REGRESSION" in message

    def test_window_limits_the_median(self, tmp_path):
        # Ancient slow history outside the window must not mask a
        # regression against the recent fast plateau.
        _seed_history(tmp_path, [0.5] * 10 + [2.0] * 5)
        history = load_history(str(tmp_path), _BENCHMARK)
        regressions, _ = check_report(_report(0.6), history, window=5)
        assert len(regressions) == 1


class TestCli:
    def _write(self, path, report):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)

    def test_check_passes_on_healthy_report(self, tmp_path):
        hist = tmp_path / "hist"
        _seed_history(hist, [2.0, 2.1, 1.9, 2.05])
        report_path = tmp_path / "BENCH_storage.json"
        self._write(report_path, _report(2.0))
        assert main(["--check", "--history", str(hist), str(report_path)]) == 0

    def test_check_fails_nonzero_and_names_metric(self, tmp_path, capsys):
        hist = tmp_path / "hist"
        _seed_history(hist, [2.0, 2.1, 1.9, 2.05])
        report_path = tmp_path / "BENCH_storage.json"
        self._write(report_path, _report(0.5))
        assert main(["--check", "--history", str(hist), str(report_path)]) == 1
        out = capsys.readouterr().out
        assert f"{_BENCHMARK}:{_PATH}" in out
        assert "REGRESSION" in out

    def test_without_check_regressions_only_warn(self, tmp_path):
        hist = tmp_path / "hist"
        _seed_history(hist, [2.0, 2.1, 1.9, 2.05])
        report_path = tmp_path / "BENCH_storage.json"
        self._write(report_path, _report(0.5))
        assert main(["--history", str(hist), "--no-append", str(report_path)]) == 0

    def test_append_records_after_judging(self, tmp_path):
        hist = tmp_path / "hist"
        _seed_history(hist, [2.0, 2.1, 1.9])
        report_path = tmp_path / "BENCH_storage.json"
        self._write(report_path, _report(0.5))
        # The bad run fails --check (judged against pre-append history)
        # but is still recorded for forensics.
        assert main(["--check", "--history", str(hist), str(report_path)]) == 1
        entries = load_history(str(hist), _BENCHMARK)
        assert entries[-1]["metrics"][_PATH] == 0.5

    def test_no_append_leaves_history_untouched(self, tmp_path):
        hist = tmp_path / "hist"
        _seed_history(hist, [2.0, 2.1, 1.9])
        report_path = tmp_path / "BENCH_storage.json"
        self._write(report_path, _report(2.0))
        main(["--no-append", "--history", str(hist), str(report_path)])
        assert len(load_history(str(hist), _BENCHMARK)) == 3

    def test_no_reports_is_a_clean_exit(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--history", str(tmp_path / "hist")]) == 0

    def test_unreadable_report_is_skipped(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_broken.json"
        bad.write_text("{not json")
        assert main(["--check", "--history", str(tmp_path / "hist"), str(bad)]) == 0
        assert "unreadable" in capsys.readouterr().out

    def test_end_to_end_with_real_report_writer(self, tmp_path, monkeypatch):
        """write_report -> benchwatch: the real v2 artifact flows through."""
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path / "BENCH_storage.json"))
        path = write_report(_BENCHMARK, {"cross_tier": {"cross_tier_boost_factor": 2.0}})
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["schema"] == 2
        assert "timestamp" in report
        hist = tmp_path / "hist"
        for _ in range(MIN_HISTORY):
            append_history(str(hist), report)
        assert main(["--check", "--history", str(hist), path]) == 0
        entries = load_history(str(hist), _BENCHMARK)
        assert entries[-1]["repro_version"] == report["repro_version"]


class TestWatchlist:
    def test_every_ci_benchmark_is_defended(self):
        defended = {watched.benchmark for watched in WATCHLIST}
        assert defended == {
            "serving", "storage", "telemetry_overhead",
        }

    def test_keys_are_unique(self):
        keys = [watched.key for watched in WATCHLIST]
        assert len(keys) == len(set(keys))
