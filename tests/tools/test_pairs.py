"""tools/pairs.py: the pair statistics on canned harness result lines."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

from benchmarks.e2e.common import quartiles
from tools import pairs

DECLARED = {
    "end_to_end": [
        {"name": "ms_per_field", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
        {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}


def canned(parent, change, metric="ms_per_field", failed=(0, 0)):
    """ABBA records of one metric: ``parent[i]`` / ``change[i]`` in pair ``i + 1``."""
    records = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            records.append({"pair": i + 1, "side": side, "result": {
                "attempted": 10, "failed": failed[side == "change"],
                "metrics": {metric: {"value": value, "unit": "ms"}},
            }})
    return records


def row(records, metric="ms_per_field"):
    (found,) = [r for r in pairs.summarize(records, DECLARED) if r["metric"] == metric]
    return found


PARENT = [1.17, 1.33, 1.23, 1.20, 1.28, 1.19, 1.25, 1.31, 1.22, 1.26]


def test_a_clear_gain_is_claimed():
    change = [0.60, 0.64, 0.58, 0.61, 0.66, 0.59, 0.62, 0.63, 0.60, 0.65]
    found = row(canned(PARENT, change))
    assert (found["wins"], found["n"], found["verdict"]) == (10, 10, "better")
    assert found["parent"] == quartiles(PARENT)
    assert found["change"] == quartiles(change)["median"]
    assert found["ratio"] == pytest.approx(found["change"] / quartiles(PARENT)["median"])


def test_an_a_a_run_claims_nothing():
    found = row(canned(PARENT, PARENT[1:] + PARENT[:1]))
    assert found["verdict"] == "no claim"
    assert found["ratio"] == pytest.approx(1.0)


def test_eight_of_ten_pairs_are_not_enough():
    change = [0.6] * 8 + [1.5, 1.5]
    found = row(canned(PARENT, change))
    assert (found["wins"], found["verdict"]) == (8, "no claim")


def test_a_gap_inside_the_parents_iqr_is_not_enough():
    change = [p - 0.01 for p in PARENT]  # lower in every pair, by little
    found = row(canned(PARENT, change))
    assert found["wins"] == 10 and found["verdict"] == "no claim"


def test_a_consistent_small_loss_is_worse_and_a_large_one_out_of_bound():
    steady = [1.0, 1.001, 0.999, 1.0, 1.0, 1.002, 0.998, 1.0, 1.001, 0.999]
    assert row(canned(steady, [v * 1.1 for v in steady]))["verdict"] == "worse"
    assert row(canned(steady, [v * 1.3 for v in steady]))["verdict"] == "OUT OF BOUND"


def test_higher_is_better_where_declared():
    found = row(canned([100.0] * 10, [150.0] * 10, metric="req_per_s"), "req_per_s")
    assert (found["wins"], found["verdict"]) == (10, "better")
    found = row(canned([100.0] * 10, [70.0] * 10, metric="req_per_s"), "req_per_s")
    assert found["verdict"] == "OUT OF BOUND"


def test_a_pair_missing_a_side_is_skipped():
    records = canned(PARENT, [0.6] * 10)
    del records[1]  # pair 1's change run
    assert row(records)["n"] == 9
    assert [r["metric"] for r in pairs.summarize(records, DECLARED)] == ["ms_per_field"]


def test_runs_alternate_which_side_goes_first(monkeypatch):
    order = []

    def fake_run(root, workload, seconds, seed):
        order.append(root)
        return {"metrics": {}}

    monkeypatch.setattr(pairs, "run_side", fake_run)
    args = SimpleNamespace(pairs=4, workload="campaign_L64", seconds=1.0, seed=0)
    records = pairs.run_pairs("P", "C", args)
    assert order == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert [r["side"] for r in records][:4] == ["parent", "change", "change", "parent"]


def test_main_reports_saved_lines(tmp_path, capsys):
    saved = tmp_path / "runs.jsonl"
    records = canned(PARENT, [0.6] * 10, failed=(0, 2))
    saved.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert pairs.main(["--load", str(saved)]) == 0
    out = capsys.readouterr().out
    assert "| ms_per_field (ms) | 1.24 [1.205, 1.275] | 0.6 | 0.484 | 10/10 | better |" in out
    assert "parent: failed 0 of 100 operations" in out
    assert "change: failed 20 of 100 operations" in out


def stub_harness(monkeypatch, returncode, stdout):
    """``subprocess.run`` answering every harness run alike, ``check=`` honoured."""
    def fake_run(command, **kwargs):
        if kwargs.get("check") and returncode:
            raise subprocess.CalledProcessError(returncode, command, stdout)
        return subprocess.CompletedProcess(command, returncode, stdout, "boom")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)


def test_a_run_that_exits_1_with_a_result_is_kept_and_counted(monkeypatch):
    result = {"attempted": 10, "failed": 3,
              "metrics": {"ms_per_field": {"value": 1.0, "unit": "ms"}}}
    stub_harness(monkeypatch, 1, f"attempted 10 failed 3\n{json.dumps(result)}\n")
    args = SimpleNamespace(pairs=2, workload="campaign_L64", seconds=1.0, seed=0)
    records = pairs.run_pairs(Path("P"), Path("C"), args)
    assert [r["result"] for r in records] == [result] * 4
    assert pairs.failures(records) == {"parent": (6, 20), "change": (6, 20)}
    report = pairs.render(pairs.summarize(records, DECLARED), records)
    assert "change: failed 6 of 20 operations" in report
    assert "FAILED SHARE WORSE" not in report


def test_a_run_without_a_result_line_names_the_pair_side_and_exit(monkeypatch):
    stub_harness(monkeypatch, 1, "Traceback (most recent call last):\n")
    args = SimpleNamespace(pairs=1, workload="campaign_L64", seconds=1.0, seed=0)
    with pytest.raises(RuntimeError, match="pair 1 parent: exit code 1 and no result"):
        pairs.run_pairs(Path("P"), Path("C"), args)


def test_a_larger_failed_share_on_the_change_is_marked():
    records = canned(PARENT, [0.6] * 10, failed=(1, 2))
    assert "FAILED SHARE WORSE: change 0.2 against parent 0.1" in pairs.render([], records)
    records = canned(PARENT, [0.6] * 10, failed=(2, 2))
    assert "FAILED SHARE WORSE" not in pairs.render([], records)
