"""The ``repro.obs`` package surface: tracing spans."""

from __future__ import annotations

import os
import subprocess
import sys
import importlib
from pathlib import Path

import pytest

import repro.obs as obs


def test_every_exported_name_resolves():
    for name in obs.__all__:
        assert getattr(obs, name) is not None, name
    assert sorted(obs.__all__) == obs.__all__


def test_submodule_names_stay_importable():
    from repro.obs.tracing import Span

    with obs.span("test_package.probe") as sp:
        assert isinstance(sp, Span)
    assert "Span" not in obs.__all__


def test_spans_are_the_whole_surface():
    assert obs.__all__ == [
        "clear_trace", "disable", "enabled", "span", "trace_records", "tracing",
    ]


@pytest.mark.parametrize(
    "name",
    ["MetricsRegistry", "counter_add", "gauge_set", "get_registry",
     "metrics_snapshot", "observe", "reset_metrics", "current_span", "enable"],
)
def test_retired_names_are_gone(name):
    """Spans are the one telemetry mechanism: the metrics registry, its
    helpers and the public ``current_span`` / ``enable`` stay retired."""
    assert not hasattr(obs, name)
    assert not hasattr(importlib.import_module("repro.obs.tracing"), name)


def test_the_metrics_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.metrics")


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
