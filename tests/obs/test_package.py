"""The ``repro.obs`` package surface: spans and a metrics registry."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro.obs as obs


def test_every_exported_name_resolves():
    for name in obs.__all__:
        assert getattr(obs, name) is not None, name
    assert sorted(obs.__all__) == obs.__all__


def test_submodule_names_stay_importable():
    from repro.obs.metrics import METRIC_NAME_RE
    from repro.obs.tracing import Span

    assert METRIC_NAME_RE.fullmatch("sht.plan_cache.hits")
    with obs.span("test_package.probe") as sp:
        assert isinstance(sp, Span)
    assert "Span" not in obs.__all__ and "METRIC_NAME_RE" not in obs.__all__


def test_importing_repro_loads_no_http_server():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop("REPRO_TRACE", None)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in {'http', 'socketserver'}))"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
