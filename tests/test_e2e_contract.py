"""Tier-1 guard for the frozen benchmark harness.

``benchmarks/e2e/`` is the performance ledger: it may not be edited by
ordinary changes, is not collected by the tier-1 suite, and calls
straight into the public surface (``emulate_stream``,
``generate_stream_multi``, ``plan_campaign``, ``run_campaign``,
``repro.serve``).  Running the two workloads that exercise generation,
campaigns and serving at smoke size here makes a change that breaks a
call the ledger makes fail the gate instead of the benchmark pipeline.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["campaign_L64", "serve_mixed_L32"])
def test_harness_smoke_run_has_no_failed_operations(workload):
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--trace", "1",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    verdict = json.loads(done.stdout.strip().splitlines()[-1])
    assert verdict["failed"] == 0
    assert verdict["correct"] is True
    assert verdict["attempted"] > 0
