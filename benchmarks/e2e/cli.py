"""Command line of the benchmark (imports nothing heavy: it sets the BLAS
thread count of a workload process before NumPy is loaded)."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Workloads whose two client threads each drive BLAS: one BLAS thread,
#: so there are never more runnable threads than cores.  The others have
#: one Python thread and give BLAS every core.
ONE_BLAS_THREAD = {"serve_mixed_L32"}


def spec() -> dict:
    """``BENCHMARK.json``: the one place workload and metric names live."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_here(args) -> int:
    """Run ``--workload`` in this process (the form the driver calls)."""
    threads = 1 if args.workload in ONE_BLAS_THREAD else os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ.pop("REPRO_TRACE", None)
    from benchmarks.e2e import run

    return run.main(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


def run_child(name: str, seed: int, args, trace: bool) -> dict:
    """One workload run in its own fresh process; returns its full result."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)),
    ] + (["--smoke"] if args.smoke else [])
    path = HERE / "out" / f"result_{name}_{'trace' if trace else 'e2e'}.json"
    path.unlink(missing_ok=True)  # never read an earlier run's result as this one's
    done = subprocess.run(command, cwd=ROOT, check=False)
    if not path.exists():
        raise SystemExit(f"{name}: the run wrote no result (exit code {done.returncode})")
    with open(path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    result["exit_code"] = done.returncode
    return result


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare_sets(sets: list, bounds: dict) -> int:
    """Print both sets' medians per end-to-end metric; 1 if any disagrees."""
    verdict = 0
    print("\nA/A: two sets of runs of the same code")
    print(f"{'workload':<16} {'metric':<14} {'median A':>12} {'median B':>12} "
          f"{'worse by':>9} {'bound':>6} {'spread A':>9} {'spread B':>9}")
    for name in sets[0]:
        for metric, (better, bound) in bounds.items():
            a, b = ([run["metrics"][metric]["value"] for run in s[name]] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1.0 if better == "lower" else -1.0)
            # As the driver does, the spread of the set-up time is shown, not gated.
            steady = metric == "setup_s" or max(spread(a), spread(b)) <= bound
            ok = worse <= bound and steady
            verdict |= not ok
            print(f"{name:<16} {metric:<14} {med_a:>12.6g} {med_b:>12.6g} {worse:>+9.2%} "
                  f"{bound:>6.0%} {spread(a):>9.2%} {spread(b):>9.2%}{'' if ok else '  FAIL'}")
    return verdict


def run_all(args) -> int:
    """Every workload (or ``--workload``'s) in fresh processes, ``--runs`` times."""
    declared = spec()
    names = [args.workload] if args.workload else [w["name"] for w in declared["workloads"]]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}
    sets = []
    failed = 0
    for index in range(2 if args.aa else 1):
        # The second set runs the workloads in the opposite order.
        results: dict = {name: [] for name in names}
        for run in range(args.runs):
            for name in (names if index == 0 else names[::-1]):
                result = run_child(name, args.seed + run, args, trace=False)
                results[name].append(result)
                failed += result["failed"] + (result["exit_code"] != 0)
                if args.trace and index == 0 and run == 0:
                    traced = run_child(name, args.seed, args, trace=True)
                    failed += traced["failed"] + (traced["exit_code"] != 0)
        sets.append(results)
    verdict = compare_sets(sets, bounds) if args.aa else 0
    print(f"\nfailed operations over all runs: {failed}")
    return 1 if failed or verdict else 0


def main(argv=None) -> int:
    declared = spec()
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=[w["name"] for w in declared["workloads"]],
                        help="run this one workload in this process (default: all, "
                             "each in its own fresh process)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also (with --workload: only) the traced per-layer run")
    parser.add_argument("--aa", action="store_true",
                        help="two sets of runs back to back; compare their medians")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload and set, each with the next seed")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at L = 8 with 2 rounds (self-test size)")
    args = parser.parse_args(argv)
    if args.workload and not args.aa and args.runs == 1:
        return run_here(args)
    return run_all(args)
