"""The tier-1 gate: the repository's own tree must lint clean.

This is the pytest wrapper around ``python -m tools.reprolint src tools
benchmarks`` — the same analysis CI runs as a dedicated job.  It also
pins the two regressions the analyzer exists to prevent from coming
back: PR 5's float-sqrt band-limit recovery and an unlocked mutation of
``EmulationService``-owned shared state.
"""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

from tools.reprolint import Baseline, lint_paths, lint_source
from tools.reprolint.cli import DEFAULT_BASELINE, DEFAULT_PATHS
from tools.reprolint.deadsymbols import dead_symbol_report, render_report
from tools.reprolint.rules.layering import EXCEPTIONS, LAYERS

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRepoTreeIsClean:
    def test_src_tools_benchmarks_lint_clean(self):
        baseline = Baseline.load(DEFAULT_BASELINE, REPO_ROOT)
        report = lint_paths(REPO_ROOT, DEFAULT_PATHS, baseline=baseline)
        assert report.scanned > 50  # the whole tree, not an empty glob
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.ok, f"reprolint findings on the tree:\n{rendered}"

    def test_tuning_package_lints_clean_without_baseline(self):
        """``repro.tuning`` (one module since PR 13) gets no grandfathered
        findings: it must pass every rule with no baseline at all."""
        report = lint_paths(REPO_ROOT, ["src/repro/tuning.py"])
        assert report.scanned == 1
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.ok, f"reprolint findings on repro.tuning:\n{rendered}"

    def test_every_package_has_no_unused_exports(self):
        """Every public symbol of every ``src/repro`` package has a caller
        outside its own package."""
        packages = sorted(
            f"src/repro/{path.name}"
            for path in (REPO_ROOT / "src" / "repro").iterdir()
            if path.name not in ("__init__.py", "__pycache__")
        )
        report = dead_symbol_report(REPO_ROOT, packages)
        assert set(report["packages"]) == set(packages)
        assert len(report["packages"]["src/repro/tuning.py"]["symbols"]) == 2
        unused = {
            package: [
                symbol
                for symbol, entry in data["symbols"].items()
                if entry["status"] == "unused"
            ]
            for package, data in report["packages"].items()
        }
        assert all(not symbols for symbols in unused.values()), (
            "fully-unused public exports:\n" + render_report(report)
        )

    def test_layering_table_mirrors_the_architecture_doc(self):
        """One table, two spellings: the rows of docs/architecture.md's
        layering table are exactly ``LAYERS``, every ``src/repro`` layer
        has a row, and every exception carries a reason."""
        text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", text, flags=re.MULTILINE)
        documented = {
            layer: tuple(re.findall(r"`(\w+)`", cell)) for layer, cell in rows
        }
        assert documented == LAYERS
        on_disk = {
            path.stem if path.is_file() else path.name
            for path in (REPO_ROOT / "src" / "repro").iterdir()
            if path.name not in ("__init__.py", "__pycache__")
        }
        assert on_disk == set(LAYERS)
        assert all(reason.strip() for reason in EXCEPTIONS.values())

    def test_ci_runs_every_example_and_the_paper_benches(self):
        """A new example or bench is run by CI, not only by its author."""
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8"
        )
        examples_job = workflow.split("\n  examples:\n", 1)[1]
        scripts = sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py"))
        assert len(scripts) >= 7
        missing = [name for name in scripts
                   if f"python examples/{name}" not in examples_job]
        assert not missing, f"examples CI never runs: {missing}"
        assert "pytest benchmarks/bench_*.py --benchmark-disable" in workflow

    def test_stale_layering_exception_is_a_finding(self, monkeypatch):
        monkeypatch.setitem(EXCEPTIONS, ("util", "repro.serving"), "made up")
        report = lint_paths(REPO_ROOT, ["src"], rules=["import-layering"])
        assert [f.rule for f in report.findings] == ["import-layering"]
        assert "matches no import any more" in report.findings[0].message

    def test_baseline_stays_minimal_and_justified(self):
        """Every baseline entry must carry a reason; staleness is enforced
        at runtime (a non-matching entry fails the clean-tree test above
        as ``stale-baseline``), so together the baseline can only shrink."""
        payload = json.loads(DEFAULT_BASELINE.read_text(encoding="utf-8"))
        assert set(payload) == {"entries"}
        for entry in payload["entries"]:
            assert entry.get("reason", "").strip(), (
                f"baseline entry {entry} has no reason; grandfathered "
                "findings must say why they are deferred"
            )


class TestAcceptanceRegressions:
    """The exact historical bugs the analyzer must keep out of the tree."""

    def test_pr5_float_sqrt_bandlimit_recovery_fails_lint(self):
        # The pre-PR-5 pattern from coeff_lm: recovering l from a linear
        # coefficient index through a float sqrt, off-by-one near large
        # perfect squares.
        source = textwrap.dedent("""
            import numpy as np

            def coeff_lm(index):
                l = int(round(np.sqrt(index)))
                m = index - l * l - l
                return l, m
        """)
        findings = lint_source(source, "src/repro/sht/coeffs.py",
                               rules=["index-recovery"])
        # Both the int() cast and the inner round() fire on the line.
        assert findings and {f.rule for f in findings} == {"index-recovery"}

    def test_unlocked_chunkcache_mutation_fails_lint(self):
        # An EmulationService-shaped class mutating its _ChunkCache and
        # flight table outside `with self._lock:` — the race the
        # lock-discipline checker exists to catch.
        source = textwrap.dedent("""
            import threading
            from collections import OrderedDict

            class EmulationService:
                def __init__(self, emulator, cache_bytes):
                    self._lock = threading.Lock()
                    self._cache = _ChunkCache(cache_bytes)
                    self._flights = {}
                    self._streams = OrderedDict()

                def get(self, request):
                    chunk = self._cache.get(request.address())
                    if chunk is None:
                        chunk = self._synthesise(request)
                        self._cache.put(request.address(), chunk)
                    return chunk
        """)
        findings = lint_source(source, "src/repro/serving/service.py",
                               rules=["lock-discipline"])
        assert len(findings) >= 2
        assert {f.rule for f in findings} == {"lock-discipline"}

    def test_the_real_service_stays_clean(self):
        report = lint_paths(REPO_ROOT, ["src/repro/serving"],
                            rules=["lock-discipline"])
        assert report.ok, "\n".join(f.render() for f in report.findings)
