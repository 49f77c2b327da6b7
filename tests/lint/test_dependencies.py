"""``repro`` depends on NumPy and SciPy, and on nothing else outside the stdlib.

The README promises exactly those two runtime dependencies, and the CI test
jobs install nothing more.  Two checks keep the promise: every absolute
import in ``src/repro``, at module or function level, names a stdlib module,
``numpy``, ``scipy`` or ``repro``; and ``import repro`` succeeds in a
process where importing any other installed package raises.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "scipy", "repro"}


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """``(line, module)`` of every absolute import outside :data:`ALLOWED`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] not in ALLOWED]
    return found


def test_detector_sees_imports_at_every_level():
    source = textwrap.dedent("""
        import os, pandas.io
        from numpy import linalg
        from . import sibling
        from scipy.linalg import blas

        def f():
            from yaml import safe_load
            import repro.linalg
    """)
    assert foreign_imports(source) == [(2, "pandas.io"), (8, "yaml")]


def test_src_imports_only_stdlib_numpy_scipy():
    paths = sorted((SRC / "repro").rglob("*.py"))
    assert len(paths) > 50  # the whole package, not an empty glob
    found = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {module}"
        for path in paths
        for line, module in foreign_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "imports outside the stdlib, numpy and scipy:\n" + "\n".join(found)


def test_import_repro_needs_nothing_else():
    """Every installed top-level package other than numpy and scipy is made
    unimportable before ``import repro``."""
    code = textwrap.dedent("""
        import site
        import sys
        from importlib.machinery import PathFinder

        INSTALLED = tuple(site.getsitepackages() + [site.getusersitepackages()])

        class Refuse:
            def find_spec(self, name, path=None, target=None):
                if path is None and name not in ("numpy", "scipy"):
                    spec = PathFinder.find_spec(name)
                    if spec is not None and (spec.origin or "").startswith(INSTALLED):
                        raise ImportError(f"{name} is not a dependency of repro")

        sys.meta_path.insert(0, Refuse())
        import repro
        import repro.systems
    """)
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
