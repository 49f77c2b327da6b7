"""Command-line interface: ``python -m tools.reprolint``.

Usage::

    python -m tools.reprolint [paths ...] [--format text|json]
                              [--output FILE] [--rule ID ...]
                              [--list-rules]
    python -m tools.reprolint --dead-public [packages ...]

Default paths are ``src tools benchmarks`` (tests are deliberately out
of scope: they exercise hostile inputs on purpose); with
``--dead-public`` they are every package under ``src/repro`` plus
``src/repro/tuning.py``.  Exit status is 0
when no finding survives, 1 otherwise — which is what the
tier-1 pytest wrapper and the CI ``lint`` job gate on.  ``--output``
writes the report to a file *as well as* honouring ``--format`` on
stdout, so CI can upload the JSON artifact even on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tools.reprolint.deadsymbols import dead_symbol_report, render_report
from tools.reprolint.engine import lint_paths
from tools.reprolint.rulebase import REPO_ROOT
from tools.reprolint.rules import LINT_RULES

__all__ = ["main"]

DEFAULT_PATHS = ("src", "tools", "benchmarks")


def default_packages(root: Path) -> "list[str]":
    """Every package directory under ``src/repro``, plus ``tuning.py``."""
    package_root = root / "src" / "repro"
    packages = [
        path.relative_to(root).as_posix()
        for path in sorted(package_root.iterdir())
        if (path / "__init__.py").exists()
    ]
    return packages + ["src/repro/tuning.py"]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="Repo-native static analysis: invariant lint rules and "
        "the lock-discipline race checker (see docs/analysis.md).",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: src tools benchmarks; "
        "with --dead-public: every package under src/repro plus tuning.py)",
    )
    parser.add_argument(
        "--root", default=str(REPO_ROOT),
        help="analysis root that relative paths (and finding paths) resolve "
        "against (default: the repository root)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="also write the JSON report to FILE (written even on failure)",
    )
    parser.add_argument(
        "--rule", action="append", metavar="ID", default=None,
        help="run only the given rule id (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--dead-public", action="store_true",
        help="instead of linting, report dead/unused public symbols of the "
        "given package directories (e.g. src/repro/linalg)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule in sorted(LINT_RULES.items()):
            print(f"{rule_id:18s} {rule.description}")
        return 0

    root = Path(args.root).resolve()

    if args.dead_public:
        packages = args.paths or default_packages(root)
        report = dead_symbol_report(root, packages)
        if args.output:
            Path(args.output).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render_report(report))
        return 0

    report = lint_paths(root, args.paths or DEFAULT_PATHS, rules=args.rule)

    if args.output:
        Path(args.output).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        status = "clean" if report.ok else f"{len(report.findings)} finding(s)"
        suppressed = report.suppressed_by_pragma
        print(
            f"reprolint: {report.scanned} file(s), "
            f"{len(report.rule_ids)} rule(s), {status}"
            + (f", {suppressed} suppressed" if suppressed else "")
        )
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
