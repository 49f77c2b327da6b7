"""Aggregate a repro trace (JSON-lines spans) into a per-name profile.

:mod:`repro.obs` writes one JSON object per closed span; this tool turns
that stream into the table a profiler would print: per span name, the
call count, total (inclusive) time, **self time** (total minus the time
spent in direct children), and a percentile summary of the individual
durations.  Self time is what makes nested traces readable — a
``facade.emulate`` span that spends 95% of its time inside
``sht.inverse`` children shows up with a small self time, pointing the
reader at the child.

Usage::

    PYTHONPATH=src python tools/tracereport.py trace.jsonl
    PYTHONPATH=src python tools/tracereport.py trace.jsonl --sort total
    PYTHONPATH=src python tools/tracereport.py trace.jsonl --json

Forked worker processes write sibling files (``trace.jsonl.<pid>``);
the report discovers and merges them automatically, attributing child
time within each process (span ids are only unique per process).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

__all__ = ["TraceRecords", "aggregate", "load_trace", "main", "render_table"]

_COLUMNS = ("calls", "total_s", "self_s", "mean_s", "p50_s", "p90_s", "p99_s", "max_s")
_SORT_KEYS = {"self": "self_s", "total": "total_s", "calls": "calls", "name": "name"}


class TraceRecords(list):
    """Span records plus how many corrupt lines were skipped reading them.

    A plain ``list`` of record dicts (so every existing
    ``aggregate(load_trace(...))`` caller keeps working) with a
    ``skipped`` attribute counting undecodable JSONL lines.
    """

    def __init__(self, records=(), skipped: int = 0):
        super().__init__(records)
        self.skipped = int(skipped)


def load_trace(path: "str | Path") -> TraceRecords:
    """Read span records from ``path`` and any ``<path>.<pid>`` siblings.

    A truncated or corrupt line — a campaign worker killed mid-write
    leaves a torn trailing record — is skipped rather than crashing the
    whole report; the returned list's ``skipped`` attribute counts the
    drops and :func:`main` reports them.
    """
    path = Path(path)
    siblings = sorted(
        sib for sib in path.parent.glob(path.name + ".*")
        if sib.suffix.lstrip(".").isdigit()
    )
    records = TraceRecords()
    for source in [path, *siblings]:
        with open(source, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    records.skipped += 1
                    continue
                if isinstance(record, dict):
                    records.append(record)
                else:
                    records.skipped += 1
    return records


def _percentile(ordered: "list[float]", q: float) -> float:
    """Nearest-rank percentile over a pre-sorted sample: the sample at
    rank ``round(q * (n - 1))``."""
    return ordered[int(round(q * (len(ordered) - 1)))]


def aggregate(records: "list[dict]") -> list[dict]:
    """Per-name statistics over span records, sorted by self time.

    Each row carries ``name``/``calls``/``total_s``/``self_s`` plus
    ``mean_s``/``p50_s``/``p90_s``/``p99_s``/``max_s`` over the
    individual span durations.  Self time is inclusive time minus the
    inclusive time of *direct* children (clamped at zero: concurrent
    children inside one span can legitimately sum past their parent).
    """
    child_seconds: "defaultdict[tuple, float]" = defaultdict(float)
    for record in records:
        parent = record.get("parent_id")
        if parent is not None:
            child_seconds[(record.get("pid"), parent)] += float(record["seconds"])

    durations: "defaultdict[str, list[float]]" = defaultdict(list)
    self_time: "defaultdict[str, float]" = defaultdict(float)
    for record in records:
        name = record["name"]
        seconds = float(record["seconds"])
        durations[name].append(seconds)
        nested = child_seconds.get((record.get("pid"), record.get("span_id")), 0.0)
        self_time[name] += max(seconds - nested, 0.0)

    rows = []
    for name, values in durations.items():
        ordered = sorted(values)
        total = sum(values)
        rows.append({
            "name": name,
            "calls": len(values),
            "total_s": total,
            "self_s": self_time[name],
            "mean_s": total / len(values),
            "p50_s": _percentile(ordered, 0.50),
            "p90_s": _percentile(ordered, 0.90),
            "p99_s": _percentile(ordered, 0.99),
            "max_s": ordered[-1],
        })
    rows.sort(key=lambda row: (-row["self_s"], row["name"]))
    return rows


def render_table(rows: "list[dict]") -> str:
    """Fixed-width text table of :func:`aggregate` rows."""
    headers = ("name", *_COLUMNS)
    table = [headers]
    for row in rows:
        table.append((
            row["name"],
            str(row["calls"]),
            *(f"{row[column]:.6f}" for column in _COLUMNS[1:]),
        ))
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = []
    for index, line in enumerate(table):
        cells = [line[0].ljust(widths[0])]
        cells += [cell.rjust(width) for cell, width in zip(line[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="JSON-lines trace file written by repro.obs")
    parser.add_argument("--sort", choices=sorted(_SORT_KEYS), default="self",
                        help="row ordering (default: self time, descending)")
    parser.add_argument("--top", type=int, default=0,
                        help="only show the first N rows (0 = all)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit rows as JSON instead of a table")
    args = parser.parse_args(argv)

    records = load_trace(args.trace)
    skipped = getattr(records, "skipped", 0)
    if skipped:
        print(
            f"{args.trace}: skipped {skipped} corrupt line(s)", file=sys.stderr
        )
    if not records:
        print(f"{args.trace}: no span records", file=sys.stderr)
        return 1
    rows = aggregate(records)
    if args.sort != "self":
        key = _SORT_KEYS[args.sort]
        reverse = args.sort != "name"
        rows.sort(key=lambda row: row[key], reverse=reverse)
    if args.top > 0:
        rows = rows[: args.top]
    if args.as_json:
        print(json.dumps(
            {"spans": len(records), "skipped": skipped, "rows": rows}, indent=2
        ))
    else:
        torn = f", {skipped} corrupt skipped" if skipped else ""
        print(f"{len(records)} spans, {len(rows)} names{torn} — {args.trace}")
        print(render_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
