"""The tier-1 gate: the repository's own tree must lint clean.

This is the pytest wrapper around ``python -m tools.reprolint src tools
benchmarks`` — the same analysis CI runs as a dedicated job.  It also
pins the two regressions the analyzer exists to prevent from coming
back: PR 5's float-sqrt band-limit recovery and an unlocked mutation of
``EmulationService``-owned shared state.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

from tools.reprolint import lint_paths, lint_source
from tools.reprolint.cli import DEFAULT_PATHS, default_packages
from tools.reprolint.deadsymbols import dead_symbol_report, render_report
from tools.reprolint.rules.layering import EXCEPTIONS, LAYERS

REPO_ROOT = Path(__file__).resolve().parents[2]

#: ``src/repro`` packages a plain ``import repro`` leaves unloaded, and why.
NOT_LOADED_BY_IMPORT = {
    "repro.stats": (
        "simulation-vs-emulation diagnostics: callers import them on demand, "
        "and the pipeline never calls them"
    ),
}


#: The packages whose public surface the dead-public gates hold.
PIPELINE_PACKAGES = [
    "src/repro/api", "src/repro/core", "src/repro/data", "src/repro/linalg",
    "src/repro/scenarios", "src/repro/serving", "src/repro/sht", "src/repro/storage",
    "src/repro/tuning.py", "src/repro/util",
]

#: Public names of :data:`PIPELINE_PACKAGES` that no ``src`` file uses and
#: only tests, ``benchmarks/e2e`` or ``examples`` call, and why each stays
#: exported.  ``benchmarks/e2e`` is frozen until the next benchmark change
#: rebases it; the examples are the package's documented front door.
TESTS_AND_SUPPORT_ONLY = {
    "src/repro/sht": {
        "complex_from_real": "benchmarks/e2e/layers.py builds the sht layer's input with it",
    },
    "src/repro/scenarios": {
        "plan_campaign": "benchmarks/e2e/wl_campaign.py times the scenarios.plan span with it",
    },
    "src/repro/storage": {
        "format_bytes": "the examples and benches print byte counts with it",
    },
}


def _public_names_with_status(status: str) -> dict[str, set[str]]:
    report = dead_symbol_report(REPO_ROOT, PIPELINE_PACKAGES)
    assert set(report["packages"]) == set(PIPELINE_PACKAGES)
    return {
        package: names
        for package, data in report["packages"].items()
        if (names := {s for s, entry in data["symbols"].items() if entry["status"] == status})
    }


class TestRepoTreeIsClean:
    def test_src_tools_benchmarks_lint_clean(self):
        report = lint_paths(REPO_ROOT, DEFAULT_PATHS)
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
        packages = default_packages(REPO_ROOT)
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

    def test_pipeline_packages_export_nothing_only_tests_use(self):
        """No :data:`PIPELINE_PACKAGES` package keeps a public name whose
        only callers are tests."""
        tests_only = _public_names_with_status("tests-only")
        assert not tests_only, f"tests-only exports: {tests_only}"

    def test_pipeline_packages_export_only_the_allowed_support_names(self):
        """The names only tests and the frozen harness call are exactly
        :data:`TESTS_AND_SUPPORT_ONLY`: a new one fails, and so does an
        entry that no longer matches (a stale allowance)."""
        allowed = {package: set(names) for package, names in TESTS_AND_SUPPORT_ONLY.items()}
        assert all(
            reason.strip() for names in TESTS_AND_SUPPORT_ONLY.values() for reason in names.values()
        )
        found = _public_names_with_status("tests-and-support-only")
        assert found == allowed, f"tests-and-support-only exports {found}, allowed {allowed}"

    def test_import_repro_loads_every_module_it_ships(self):
        """No ``src/repro`` module is reached only from benchmarks, examples
        or tests: a fresh ``import repro`` loads each one, bar the packages
        in :data:`NOT_LOADED_BY_IMPORT` (and their submodules)."""
        src = REPO_ROOT / "src"
        on_disk = {
            ".".join(path.relative_to(src).with_suffix("").parts).removesuffix(".__init__")
            for path in (src / "repro").rglob("*.py")
        }
        loaded = set(subprocess.run(
            [sys.executable, "-c", "import sys, repro; print(*sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        ).stdout.split())
        for package in NOT_LOADED_BY_IMPORT:
            assert package in on_disk and package not in loaded, f"stale: {package}"
        missing = sorted(
            module for module in on_disk - loaded
            if not any(module == p or module.startswith(p + ".") for p in NOT_LOADED_BY_IMPORT)
        )
        assert not missing, f"modules `import repro` never loads: {missing}"

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
