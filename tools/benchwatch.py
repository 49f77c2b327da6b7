#!/usr/bin/env python
"""Benchmark-trajectory regression watcher.

Every CI run produces schema-versioned ``BENCH_<name>.json`` reports
(``benchmarks/_report.py``) stamped with the git SHA — and until now
threw them away.  ``benchwatch`` turns those reports into a defended
*trajectory*: each gated metric is appended to a JSONL history under
``benchmarks/history/``, the current run is compared against the
rolling median of the recent window, and a regression beyond the
tolerance exits nonzero with the offending metric named — so a hot
path cannot quietly get slower commit over commit.

Usage::

    python tools/benchwatch.py                  # append BENCH_*.json to history
    python tools/benchwatch.py --check          # also fail on regressions
    python tools/benchwatch.py --check --no-append BENCH_serving.json

Design points:

* **Watched metrics are explicit** (:data:`WATCHLIST`): each entry
  names a benchmark, a dotted path into its ``summary``, a direction
  (``higher``/``lower`` is better), and an optional absolute slack for
  metrics that live near zero (relative tolerance alone is meaningless
  there — the telemetry ``disabled_overhead`` legitimately wobbles
  around 0.0).
* **Median, not mean**: shared-runner wall clocks are heavy-tailed;
  the rolling median over the last ``--window`` entries shrugs off a
  single slow outlier in the history.
* **Compare before append**: the current run is judged against history
  that does *not* include it, then appended — so one bad run cannot
  vouch for itself, and the history still records it for forensics.
* **Warm-up grace**: with fewer than ``MIN_HISTORY`` prior entries a
  metric is reported ``(warming up)`` and never fails — a fresh
  history cache starts accumulating instead of blocking CI.
* **Schema tolerant**: v1 reports (no ``git``/``timestamp``) are
  accepted; their history entries carry ``None`` for the commit axis.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

__all__ = [
    "DEFAULT_HISTORY_DIR",
    "DEFAULT_TOLERANCE",
    "DEFAULT_WINDOW",
    "MIN_HISTORY",
    "WATCHLIST",
    "WatchedMetric",
    "append_history",
    "check_report",
    "load_history",
    "main",
    "metric_value",
]

#: Fewer prior history entries than this → "warming up", never a failure.
MIN_HISTORY = 3

#: Rolling-median window (most recent history entries considered).
DEFAULT_WINDOW = 20

#: Relative tolerance around the rolling median before a run counts as
#: a regression.  Deliberately loose: shared CI runners are noisy, and
#: the watcher's job is catching real slides, not wall-clock weather.
DEFAULT_TOLERANCE = 0.5

#: Default trajectory location (one ``<benchmark>.jsonl`` per suite).
DEFAULT_HISTORY_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "history",
)


class WatchedMetric:
    """One gated metric: where it lives and which direction is good.

    ``path`` is a dotted path into the report's ``summary`` dict
    (``"latency.speedup"`` → ``summary["latency"]["speedup"]``).
    ``higher_is_better`` picks the regression direction; ``abs_slack``
    widens the gate by an absolute margin for metrics whose healthy
    value sits near zero.
    """

    def __init__(self, benchmark: str, path: str, *, higher_is_better: bool,
                 abs_slack: float = 0.0):
        self.benchmark = benchmark
        self.path = path
        self.higher_is_better = bool(higher_is_better)
        self.abs_slack = float(abs_slack)

    @property
    def key(self) -> str:
        return f"{self.benchmark}:{self.path}"

    def regressed(self, current: float, median: float, tolerance: float) -> bool:
        if self.higher_is_better:
            return current < median * (1.0 - tolerance) - self.abs_slack
        return current > median * (1.0 + tolerance) + self.abs_slack


#: The defended trajectory: every CI benchmark's headline numbers.
WATCHLIST = (
    WatchedMetric("serving", "latency.speedup", higher_is_better=True),
    WatchedMetric(
        "serving", "throughput.requests_per_second", higher_is_better=True
    ),
    WatchedMetric(
        "storage", "cross_tier.cross_tier_boost_factor", higher_is_better=True
    ),
    # disabled_overhead is a fraction that hovers around 0.0 (and is
    # legitimately negative under timer noise): the absolute slack is
    # the real gate, the relative term contributes nothing at 0.
    WatchedMetric(
        "telemetry_overhead", "disabled_overhead",
        higher_is_better=False, abs_slack=0.02,
    ),
)


def metric_value(summary: dict, path: str) -> "float | None":
    """Resolve a dotted path inside a summary dict (``None`` if absent)."""
    node = summary
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    try:
        return float(node)
    except (TypeError, ValueError):
        return None


def _history_path(history_dir: str, benchmark: str) -> str:
    return os.path.join(history_dir, f"{benchmark}.jsonl")


def load_history(history_dir: str, benchmark: str) -> list:
    """All history entries for a benchmark, oldest first.

    Unparseable lines (a torn write from a killed CI job) are skipped —
    the trajectory degrades by one point instead of wedging the watcher.
    """
    path = _history_path(history_dir, benchmark)
    if not os.path.exists(path):
        return []
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return entries


def _history_entry(report: dict) -> dict:
    """The trajectory point for one report (v1 reports stamp ``None``)."""
    metrics = {}
    for watched in WATCHLIST:
        if watched.benchmark != report.get("benchmark"):
            continue
        value = metric_value(report.get("summary", {}), watched.path)
        if value is not None:
            metrics[watched.path] = value
    return {
        "schema": report.get("schema"),
        "benchmark": report.get("benchmark"),
        "git": report.get("git"),
        "timestamp": report.get("timestamp"),
        "repro_version": report.get("repro_version"),
        "metrics": metrics,
    }


def append_history(history_dir: str, report: dict) -> str:
    """Append one report's trajectory point; returns the history path."""
    os.makedirs(history_dir, exist_ok=True)
    path = _history_path(history_dir, report.get("benchmark", "unknown"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(_history_entry(report), sort_keys=True) + "\n")
    return path


def check_report(
    report: dict,
    history: list,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    window: int = DEFAULT_WINDOW,
) -> tuple:
    """Judge one report against its (pre-append) history.

    Returns ``(regressions, lines)``: the list of regression messages
    (empty when healthy) and the full per-metric status lines.
    """
    benchmark = report.get("benchmark")
    summary = report.get("summary", {})
    regressions = []
    lines = []
    for watched in WATCHLIST:
        if watched.benchmark != benchmark:
            continue
        current = metric_value(summary, watched.path)
        if current is None:
            lines.append(f"  {watched.key}: absent from summary (skipped)")
            continue
        values = [
            entry["metrics"][watched.path]
            for entry in history[-int(window):]
            if watched.path in entry.get("metrics", {})
        ]
        if len(values) < MIN_HISTORY:
            lines.append(
                f"  {watched.key}: {current:.6g} "
                f"({len(values)} prior entries, warming up)"
            )
            continue
        median = statistics.median(values)
        if watched.regressed(current, median, tolerance):
            direction = "below" if watched.higher_is_better else "above"
            message = (
                f"REGRESSION {watched.key}: {current:.6g} is {direction} the "
                f"rolling median {median:.6g} of the last {len(values)} runs "
                f"beyond tolerance {tolerance:g}"
                + (f" (+abs slack {watched.abs_slack:g})" if watched.abs_slack else "")
            )
            regressions.append(message)
            lines.append(f"  {message}")
        else:
            lines.append(
                f"  {watched.key}: {current:.6g} "
                f"(median {median:.6g} over {len(values)}, ok)"
            )
    return regressions, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Defend the benchmark trajectory: compare BENCH_*.json "
        "reports against their rolling history and fail on regressions."
    )
    parser.add_argument(
        "reports", nargs="*",
        help="BENCH_*.json report paths (default: glob BENCH_*.json in cwd)",
    )
    parser.add_argument(
        "--history", default=DEFAULT_HISTORY_DIR,
        help=f"history directory (default: {DEFAULT_HISTORY_DIR})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero when a watched metric regresses",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="judge only; do not record this run in the history",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=f"relative regression tolerance (default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW,
        help=f"rolling-median window (default: {DEFAULT_WINDOW})",
    )
    args = parser.parse_args(argv)

    paths = args.reports or sorted(glob.glob("BENCH_*.json"))
    if not paths:
        print("benchwatch: no BENCH_*.json reports found")
        return 0

    all_regressions = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"benchwatch: skipping unreadable report {path}: {exc}")
            continue
        benchmark = report.get("benchmark")
        if not benchmark:
            print(f"benchwatch: skipping {path}: no benchmark name")
            continue
        history = load_history(args.history, benchmark)
        regressions, lines = check_report(
            report, history, tolerance=args.tolerance, window=args.window
        )
        sha = (report.get("git") or {}).get("sha")
        stamp = f" @ {sha[:12]}" if sha else ""
        print(f"{benchmark}{stamp} ({path}, {len(history)} prior entries):")
        for line in lines:
            print(line)
        all_regressions.extend(regressions)
        if not args.no_append:
            append_history(args.history, report)

    if all_regressions:
        print(f"\nbenchwatch: {len(all_regressions)} regression(s) detected:")
        for message in all_regressions:
            print(f"  {message}")
        return 1 if args.check else 0
    print("\nbenchwatch: trajectory healthy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
