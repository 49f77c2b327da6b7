"""Run one workload in this process and print its result."""

from __future__ import annotations

import json
import os
import resource
import statistics

import repro

from benchmarks.e2e.common import OUT_DIR, Metrics, Workload, timed
from benchmarks.e2e.tracer import Tracer, self_times
from benchmarks.e2e.wl_campaign import CampaignWorkload
from benchmarks.e2e.wl_fit import FitWorkload
from benchmarks.e2e.wl_serve import ServeWorkload
from benchmarks.e2e.wl_sht import ShtWorkload

WORKLOADS = {
    cls.name: cls for cls in (ShtWorkload, FitWorkload, CampaignWorkload, ServeWorkload)
}


def run_rounds(workload: Workload, seconds: float, at_least: int) -> dict:
    """Rounds until ``seconds`` have been measured: ``{stage: [samples]}``."""
    samples: dict[str, list[float]] = {}
    spent, n = 0.0, 0
    while n < at_least or spent < seconds:
        stages = workload.round()
        for stage, value in stages.items():
            samples.setdefault(stage, []).append(value)
        spent += stages["round"]
        n += 1
    return samples


def run_workload(workload: Workload, seconds: float, trace: bool) -> dict:
    """Inputs, set-up, timed rounds, checks and (``trace``) the layer replays."""
    if repro.obs.enabled():
        repro.obs.disable()  # the program's own tracing must not skew timings
    metrics = Metrics()
    digest, inputs_s = timed(workload.make_inputs)
    setups = [timed(workload.setup)[1] for _ in range(workload.setup_repeats)]
    metrics.put(
        "setup_s", inputs_s + statistics.median(setups), inputs_s=inputs_s, setups=setups
    )
    if workload.smoke:
        budget, at_least = 0.0, 2
    elif trace:
        # Half the measured time goes to untraced rounds, half to replays.
        budget, at_least = seconds / 2.0, 1
    else:
        budget, at_least = seconds, workload.min_rounds
    rounds = run_rounds(workload, budget, at_least)
    workload.report(rounds, metrics)
    if trace:
        tracer = Tracer(workload.name)
        with tracer.span(workload.name):
            workload.trace(tracer, 0.0 if workload.smoke else seconds / 2.0, rounds, metrics)
        metrics.put(
            "bench.trace_overhead_share",
            min(tracer.seconds("round")) / min(rounds["round"]) - 1.0,
        )
        tracer.write(str(OUT_DIR / f"trace_{workload.name}.jsonl"))
        selfs = self_times(tracer.records)
        traced = [r for r in tracer.records if r["name"] == "round"]
        workload.info["trace"] = {
            "spans": len(tracer.records),
            "traced_rounds": len(traced),
            # Share of the replayed rounds' wall inside named layer spans.
            "attributed_share": 1.0 - sum(selfs[r["span_id"]] for r in traced)
            / sum(r["seconds"] for r in traced),
        }
    metrics.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": bool(trace),
        "smoke": workload.smoke,
        "input_digest": digest,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "info": workload.info,
        "rounds": rounds,
        "metrics": metrics.values,
        "driver": {
            "correct": workload.failed == 0,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "metrics": metrics.driver_view(trace),
        },
    }


def print_result(result: dict) -> None:
    """Every metric by name with its unit; the driver's JSON object last."""
    print(
        f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])} "
        f"nproc {result['nproc']} blas_threads {result['blas_threads']}"
    )
    print(f"input_digest {result['input_digest']}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    for name, metric in result["metrics"].items():
        line = f"metric {name} = {metric['value']:.6g} {metric['unit']}"
        if "n" in metric:
            line += (f"  (median {metric['median']:.6g}, quartiles {metric['q1']:.6g}"
                     f" {metric['q3']:.6g}, n {metric['n']})")
        print(line)
    print(f"info {json.dumps(result['info'], sort_keys=True, default=str)}")
    print(json.dumps(result["driver"]), flush=True)


def main(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    workload = WORKLOADS[name](seed, smoke)
    try:
        result = run_workload(workload, seconds, trace)
    finally:
        workload.close()
    kind = "trace" if trace else "e2e"
    with open(OUT_DIR / f"result_{name}_{kind}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True, default=str)
    print_result(result)
    return 0 if result["failed"] == 0 else 1
