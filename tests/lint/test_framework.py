"""Framework-level tests: pragmas, engine, CLI."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from tools.reprolint import lint_paths, lint_source, parse_pragmas
from tools.reprolint.engine import SYNTAX_ERROR

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestPragmaParsing:
    def test_trailing_pragma_targets_its_own_line(self):
        source = "x = 1  # reprolint: allow[determinism] why not\n"
        (pragma,) = parse_pragmas(source)
        assert pragma.rules == ("determinism",)
        assert pragma.reason == "why not"
        assert pragma.target_line == 1

    def test_standalone_pragma_targets_the_next_line(self):
        source = "# reprolint: allow[lock-discipline] why\nx = 1\n"
        (pragma,) = parse_pragmas(source)
        assert pragma.target_line == 2

    def test_pragma_examples_in_strings_are_inert(self):
        source = 'text = "# reprolint: allow[determinism] not a comment"\n'
        assert parse_pragmas(source) == []

    def test_multiple_rules_per_pragma(self):
        source = "# reprolint: allow[determinism, bare-except] shared reason\nx = 1\n"
        (pragma,) = parse_pragmas(source)
        assert pragma.rules == ("determinism", "bare-except")


class TestBadPragma:
    def test_reasonless_pragma_is_a_finding_and_suppresses_nothing(self):
        source = "import time\nt = time.time()  # reprolint: allow[determinism]\n"
        findings = lint_source(source, "src/repro/core/example.py",
                               rules=["determinism"])
        assert sorted(f.rule for f in findings) == ["bad-pragma", "determinism"]

    def test_unknown_rule_id_is_a_finding(self):
        source = "x = 1  # reprolint: allow[no-such-rule] reason\n"
        findings = lint_source(source, rules=["determinism"])
        assert [f.rule for f in findings] == ["bad-pragma"]
        assert "unknown rule" in findings[0].message

    def test_wildcard_pragma_suppresses_every_rule(self):
        source = (
            "import time\n"
            "t = time.time()  # reprolint: allow[*] fixture exercising everything\n"
        )
        assert lint_source(source, "src/repro/core/example.py") == []


class TestEngine:
    def test_unparseable_file_is_a_syntax_error_finding(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "broken.py").write_text("def f(:\n")
        report = lint_paths(tmp_path, ["src"])
        assert [f.rule for f in report.findings] == [SYNTAX_ERROR]
        assert not report.ok

    def test_skip_dirs_are_not_scanned(self, tmp_path):
        src = tmp_path / "src"
        (src / "__pycache__").mkdir(parents=True)
        (src / "__pycache__" / "junk.py").write_text("def f(:\n")
        (src / "ok.py").write_text("x = 1\n")
        report = lint_paths(tmp_path, ["src"])
        assert report.scanned == 1 and report.ok

    def test_report_to_dict_shape(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "ok.py").write_text("x = 1\n")
        payload = lint_paths(tmp_path, ["src"]).to_dict()
        assert payload["ok"] is True
        assert payload["scanned_files"] == 1
        assert payload["findings"] == []
        assert payload["version"] == 2 and "rules" in payload


class TestCli:
    @staticmethod
    def run_cli(*args, cwd=REPO_ROOT):
        return subprocess.run(
            [sys.executable, "-m", "tools.reprolint", *args],
            cwd=cwd, capture_output=True, text=True, timeout=120,
        )

    def test_failing_tree_exits_nonzero_and_writes_json(self, tmp_path):
        src = tmp_path / "src" / "repro" / "core"
        src.mkdir(parents=True)
        (src / "bad.py").write_text("import time\nt = time.time()\n")
        out = tmp_path / "report.json"
        proc = self.run_cli(
            "src", "--root", str(tmp_path), "--output", str(out),
        )
        assert proc.returncode == 1
        assert "determinism" in proc.stdout
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        assert any(f["rule"] == "determinism" for f in payload["findings"])

    def test_clean_tree_exits_zero(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "ok.py").write_text('"""Fine."""\nx = 1\n')
        proc = self.run_cli("src", "--root", str(tmp_path), "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["ok"] is True

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("lock-discipline", "determinism", "index-recovery",
                        "state-protocol", "nonfinite-write", "api-hygiene"):
            assert rule_id in proc.stdout


class TestDeadSymbols:
    def test_classification(self, tmp_path):
        from tools.reprolint import dead_symbol_report

        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            "from pkg.mod import used, tested, ghost\n"
            '__all__ = ["used", "tested", "ghost"]\n'
        )
        (package / "mod.py").write_text(textwrap.dedent("""
            def used():
                \"\"\"Used from src.\"\"\"

            def tested():
                \"\"\"Used from tests only.\"\"\"

            def ghost():
                \"\"\"Used nowhere.\"\"\"
        """))
        consumer = tmp_path / "src" / "app.py"
        consumer.write_text("from pkg import used\nused()\n")
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_mod.py").write_text("from pkg import tested\ntested()\n")

        report = dead_symbol_report(tmp_path, ["src/pkg"])
        symbols = report["packages"]["src/pkg"]["symbols"]
        assert symbols["used"]["status"] == "used-in-src"
        assert symbols["tested"]["status"] == "tests-only"
        assert symbols["ghost"]["status"] == "unused"
