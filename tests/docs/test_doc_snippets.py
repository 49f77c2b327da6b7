"""The documentation gates: snippets must run, api.md must be current.

These tests run the same two checks as the CI docs job, so a stale
``docs/api.md`` or a broken README snippet fails the plain test-suite
too — documentation rot is a test failure, not a surprise for readers.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_tool(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *argv], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=600,
    )


class TestDocSnippets:
    def test_readme_and_docs_snippets_execute(self):
        result = _run_tool("tools/check_docs.py")
        assert result.returncode == 0, result.stderr
        assert "README.md" in result.stdout
        assert "executed successfully" in result.stdout

    def test_readme_has_executable_quickstart(self):
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            from check_docs import extract_python_blocks
        finally:
            sys.path.pop(0)
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        blocks = extract_python_blocks(readme)
        assert len(blocks) >= 2
        joined = "\n".join(blocks)
        for call in ("repro.fit", "repro.save", "repro.load",
                     "repro.run_campaign", "repro.emulate_stream"):
            assert call in joined, f"quickstart no longer shows {call}"

    def test_api_reference_is_current(self):
        result = _run_tool("tools/gen_api_docs.py", "--check")
        assert result.returncode == 0, result.stderr + result.stdout

    def test_docs_exist_and_cross_reference(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/architecture.md" in readme and "docs/api.md" in readme
        api = (REPO_ROOT / "docs" / "api.md").read_text(encoding="utf-8")
        # The anchors UnknownBackendError messages point at must exist.
        for heading in ("## SHT plans", "## Scenarios",
                        "## Cholesky precision variants"):
            assert heading in api, heading
