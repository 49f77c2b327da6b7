"""Make ``benchmarks.paper_model`` importable for its tests.

The paper's cost model lives under ``benchmarks/`` at the repo root, next
to the benches that price the paper's figures with it, while the pipeline
is importable via ``PYTHONPATH=src``; so the repo root itself has to be on
``sys.path`` (as for the lint tests).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))
