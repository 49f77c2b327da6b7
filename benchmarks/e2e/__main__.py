"""``python3 -m benchmarks.e2e`` from the root of a checkout."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# The package under test lives in src/; the checkout root makes
# ``benchmarks.e2e`` importable when this file is run by path.
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
