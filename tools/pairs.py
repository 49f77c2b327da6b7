"""Parent / change pairs of one e2e workload: the protocol behind a perf claim.

    python -m tools.pairs --workload campaign_L64 [--ref HEAD] [--pairs 10]
        [--seconds 10] [--seed 0] [--save FILE] [--load FILE]

The change is this checkout's working tree; the parent is ``--ref``,
checked out by ``git worktree add --detach`` under a temporary directory
and removed afterwards.  Pair ``i`` runs ``python3 -m benchmarks.e2e
--workload W --seconds S --trace 0 --seed N`` once on each side, the
parent first in odd pairs and the change first in even ones (ABBA), so
a drift of the host hits both sides alike.  The last line a run prints
is the harness's JSON result.  ``--save`` keeps those results, one
``{"pair", "side", "result"}`` object a line, and ``--load`` reports on
saved lines without running anything.  A run that exits non-zero (the
harness exits 1 when an operation failed) is kept when its last line is
a result; only a run without one stops the tool.

Per end-to-end metric of ``BENCHMARK.json`` the report gives the
parent's median and quartiles (``benchmarks.e2e.common.quartiles``), the
change's median, the ratio change / parent, ``k/N`` (the pairs in which
the change is better, in the metric's ``better`` direction) and a
verdict: ``better`` or ``worse`` when at least nine in ten pairs agree
and the medians differ by more than the parent's interquartile range,
``no claim`` otherwise, and ``OUT OF BOUND`` when the change's median is
worse than the parent's by more than the metric's bound.  Each side's
failed operations are summed, and the report is marked ``FAILED SHARE
WORSE`` when the change fails a larger share than the parent.

The tool writes nothing into the repository (the harness keeps its
gitignored ``benchmarks/e2e/out/`` in each checkout it runs in).
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    # benchmarks.e2e.common imports repro, as the harness's entry point does.
    sys.path.insert(0, str(ROOT / "src"))

from benchmarks.e2e.common import quartiles  # noqa: E402

SIDES = ("parent", "change")

#: A claim needs this share of the pairs to agree.
AGREE_SHARE = 0.9


def run_side(root: Path, workload: str, seconds: float, seed: int) -> dict:
    """One harness run in checkout ``root``; its JSON result line.

    The harness exits 1 when an operation failed and still prints its
    result last, so any exit code with a result line is a run to count;
    ``RuntimeError`` is raised only when the last line is not a result.
    """
    command = [
        sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
        "--seconds", str(seconds), "--trace", "0", "--seed", str(seed),
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise RuntimeError(f"exit code {done.returncode} and no result line; "
                       f"stderr ends: {done.stderr.strip()[-500:]}")
    return result


def run_pairs(parent: Path, change: Path, args) -> "list[dict]":
    """``args.pairs`` ABBA pairs; one ``{"pair", "side", "result"}`` per run."""
    records = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 == 1 else SIDES[::-1]
        for side in order:
            root = parent if side == "parent" else change
            try:
                result = run_side(root, args.workload, args.seconds, args.seed)
            except RuntimeError as exc:
                raise RuntimeError(f"pair {pair} {side}: {exc}") from exc
            records.append({"pair": pair, "side": side, "result": result})
            print(f"pair {pair} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
    return records


def summarize(records: "list[dict]", declared: dict) -> "list[dict]":
    """One row per end-to-end metric both sides reported, in declared order."""
    by_pair: "dict[int, dict[str, dict]]" = {}
    for record in records:
        by_pair.setdefault(record["pair"], {})[record["side"]] = record["result"]["metrics"]
    rows = []
    for metric in declared["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [
            (sides["parent"][name]["value"], sides["change"][name]["value"])
            for _, sides in sorted(by_pair.items())
            if all(side in sides and name in sides[side] for side in SIDES)
        ]
        if not pairs:
            continue
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])["median"]
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        losses = sum((c > p) if lower else (c < p) for p, c in pairs)
        needed = math.ceil(AGREE_SHARE * len(pairs))
        clear = abs(change - parent["median"]) > parent["q3"] - parent["q1"]
        verdict = "no claim"
        if clear and wins >= needed:
            verdict = "better"
        elif clear and losses >= needed:
            verdict = "worse"
        ratio = change / parent["median"] if parent["median"] else float("nan")
        if "bound" in metric and (ratio > 1 + metric["bound"] if lower
                                  else ratio < 1 - metric["bound"]):
            verdict = "OUT OF BOUND"
        rows.append({
            "metric": name, "unit": metric["unit"], "parent": parent,
            "change": change, "ratio": ratio, "wins": wins, "n": len(pairs),
            "verdict": verdict,
        })
    return rows


def failures(records: "list[dict]") -> "dict[str, tuple[int, int]]":
    """``side -> (failed, attempted)`` summed over its runs."""
    totals = {side: [0, 0] for side in SIDES}
    for record in records:
        result = record["result"]
        totals[record["side"]][0] += int(result.get("failed", 0))
        totals[record["side"]][1] += int(result.get("attempted", 0))
    return {side: (failed, attempted) for side, (failed, attempted) in totals.items()}


def render(rows: "list[dict]", records: "list[dict]") -> str:
    """The report as a Markdown table plus the operation counts."""
    lines = [
        "| metric | parent median [q1, q3] | change median | ratio | k/N | verdict |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        p = row["parent"]
        lines.append(
            f"| {row['metric']} ({row['unit']}) | {p['median']:.4g} "
            f"[{p['q1']:.4g}, {p['q3']:.4g}] | {row['change']:.4g} | "
            f"{row['ratio']:.3f} | {row['wins']}/{row['n']} | {row['verdict']} |"
        )
    shares = {}
    for side, (failed, attempted) in failures(records).items():
        lines.append(f"{side}: failed {failed} of {attempted} operations")
        shares[side] = failed / attempted if attempted else 0.0
    if shares["change"] > shares["parent"]:
        lines.append(f"FAILED SHARE WORSE: change {shares['change']:.4g} "
                     f"against parent {shares['parent']:.4g}")
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--ref", default="HEAD", help="the parent's git ref")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--save", help="write the runs' results here, one JSON line each")
    parser.add_argument("--load", help="report on results saved by --save; run nothing")
    args = parser.parse_args(argv)
    if args.load:
        with open(args.load, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
    else:
        if args.workload is None:
            parser.error("--workload is required unless --load is given")
        with tempfile.TemporaryDirectory(prefix="pairs_") as workdir:
            parent = Path(workdir) / "parent"
            git = ["git", "-C", str(ROOT), "worktree"]
            subprocess.run(git + ["add", "--detach", "--quiet", str(parent), args.ref],
                           check=True)
            try:
                records = run_pairs(parent, ROOT, args)
            finally:
                subprocess.run(git + ["remove", "--force", str(parent)], check=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(record) + "\n" for record in records)
    print(render(summarize(records, declared), records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
