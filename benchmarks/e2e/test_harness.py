"""Self-tests of the benchmark harness: ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.

Every workload runs at smoke size (L = 8, 2 rounds) through the real
command line, once untraced and once traced, in its own process.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.cli import main as cli_main  # noqa: E402
from benchmarks.e2e.run import WORKLOADS  # noqa: E402
from benchmarks.e2e.tracer import self_times  # noqa: E402
from benchmarks.e2e.wl_serve import CLASS_SHARES, ServeWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
OUT = ROOT / "benchmarks" / "e2e" / "out"


def smoke(name: str, trace: int) -> dict:
    """One smoke run through the command line; the driver line plus the result file."""
    done = subprocess.run(
        [*SPEC["command"], "--workload", name, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    kind = "trace" if trace else "e2e"
    result = json.loads((OUT / f"result_{name}_{kind}.json").read_text(encoding="utf-8"))
    result["driver_line"] = json.loads(done.stdout.strip().splitlines()[-1])
    result["stdout"] = done.stdout
    if trace:
        lines = (OUT / f"trace_{name}.jsonl").read_text(encoding="utf-8").splitlines()
        result["spans"] = [json.loads(line) for line in lines]
    return result


@pytest.fixture(scope="module")
def runs() -> dict:
    return {(name, trace): smoke(name, trace) for name in NAMES for trace in (0, 1)}


class TestDeclaration:
    def test_benchmark_json_is_within_the_contract(self):
        assert set(SPEC) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }
        assert SPEC["paths"] == ["benchmarks/e2e"]
        assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
        assert 2 <= len(SPEC["workloads"]) <= 8
        assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
        names = NAMES + list(END_TO_END) + list(PER_LAYER)
        assert len(names) == len(set(names))
        assert all(NAME_RE.fullmatch(name) for name in names)
        for workload in SPEC["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        for metric in SPEC["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in SPEC["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert UNIT_RE.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
        setup = END_TO_END["setup_s"]
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])

    def test_harness_and_declaration_name_the_same_workloads(self):
        assert sorted(WORKLOADS) == sorted(NAMES)


class TestSmokeRuns:
    def test_untraced_runs_report_every_end_to_end_metric(self, runs):
        for name in NAMES:
            line = runs[name, 0]["driver_line"]
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
            assert set(line["metrics"]) == set(END_TO_END)
            for metric, entry in line["metrics"].items():
                assert entry["unit"] == END_TO_END[metric]["unit"]
                assert math.isfinite(entry["value"]) and entry["value"] > 0

    def test_traced_runs_report_every_per_layer_metric(self, runs):
        for name in NAMES:
            line = runs[name, 1]["driver_line"]
            assert line["correct"] is True
            assert set(line["metrics"]) == set(PER_LAYER)
            assert all(
                entry["unit"] == PER_LAYER[metric]["unit"] and math.isfinite(entry["value"])
                for metric, entry in line["metrics"].items()
            )

    def test_each_metric_is_printed_once_with_its_unit(self, runs):
        units = {**{k: v["unit"] for k, v in END_TO_END.items()},
                 **{k: v["unit"] for k, v in PER_LAYER.items()}}
        for result in runs.values():
            printed = re.findall(r"^metric (\S+) = (\S+) (\S+)", result["stdout"], re.M)
            names = [name for name, _, _ in printed]
            assert len(names) == len(set(names)) and set(names) == set(result["metrics"])
            for name, value, unit in printed:
                assert unit == units[name] and math.isfinite(float(value))

    def test_every_declared_metric_has_a_reporting_workload(self, runs):
        measured = set().union(*(runs[name, 1]["metrics"] for name in NAMES))
        assert measured == set(END_TO_END) | set(PER_LAYER)

    def test_workloads_bypass_the_layers_they_claim_to_bypass(self, runs):
        absent = {
            "sht_L128": ("core.", "linalg.", "api.", "storage.", "scenarios.", "serving."),
            "fit_L48": ("storage.", "scenarios.", "serving.", "core.generate", "core.draw"),
            "campaign_L64": ("serving.", "core.trend", "linalg.cholesky"),
            "serve_mixed_L32": ("scenarios.", "core.trend", "linalg.cholesky"),
        }
        for name, prefixes in absent.items():
            reported = runs[name, 1]["metrics"]
            assert not [m for m in reported if m.startswith(prefixes)], name

    def test_spans_nest_and_self_times_add_up(self, runs):
        for name in NAMES:
            result = runs[name, 1]
            spans = result["spans"]
            ids = {span["span_id"] for span in spans}
            roots = [span for span in spans if span["parent_id"] is None]
            assert len(roots) == 1 and roots[0]["name"] == name
            assert all(span["parent_id"] in ids for span in spans if span["parent_id"] is not None)
            assert all(span["workload"] == name for span in spans)
            selfs = self_times(spans)
            assert min(selfs.values()) >= -1e-9
            if name == "serve_mixed_L32":
                # Two client threads work under one round span: self times
                # add up to thread-seconds, which exceed the root's wall.
                assert sum(selfs.values()) >= roots[0]["seconds"] * (1 - 1e-6)
            else:
                assert sum(selfs.values()) == pytest.approx(roots[0]["seconds"], rel=1e-6)
            assert result["info"]["trace"]["attributed_share"] >= 0.9

    def test_failures_are_counted_not_raised(self, runs):
        for (name, _), result in runs.items():
            assert result["attempted"] >= 2 and result["failed"] == 0
            assert result["blas_threads"] == (1 if name == "serve_mixed_L32" else result["nproc"])


class TestSeededLoad:
    @pytest.mark.parametrize("name", NAMES)
    def test_same_seed_same_digest_other_seed_other_digest(self, name):
        digests = []
        for seed in (11, 11, 12):
            workload = WORKLOADS[name](seed, True)
            try:
                digests.append(workload.make_inputs())
            finally:
                workload.close()
        assert digests[0] == digests[1] != digests[2]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_request_mix_and_tail_samples(self, seed):
        workload = ServeWorkload(seed, smoke=False)
        try:
            workload.make_schedule()
        finally:
            workload.close()
        n = workload.n_requests
        shares = np.bincount(workload.classes, minlength=3) / n
        assert np.all(np.abs(shares - CLASS_SHARES) <= 0.02)
        beyond_p99 = n // 100
        assert beyond_p99 >= 10 and shares[2] * n >= 3 * beyond_p99
        cold = [key for key, cls in zip(workload.keys, workload.classes) if cls == 2]
        assert len(set(cold)) == len(cold)  # every cold request is a year never asked before
        assert all(key[1] >= workload.n_stored_realizations for key in cold)


def test_aa_mode_compares_two_sets(capfd):
    code = cli_main(["--workload", "sht_L128", "--aa", "--smoke"])
    printed = capfd.readouterr().out
    assert "median A" in printed and "ms_per_field" in printed and "setup_s" in printed
    assert code in (0, 1)  # smoke-sized timings may disagree; the comparison must run


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command must exit non-zero and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [*SPEC["command"], "--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
        env={"PATH": "/usr/bin:/bin:" + str(Path(sys.executable).parent)},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
