"""Generate ``docs/api.md`` from the real docstrings.

The reference is *generated, not written*: every entry is the live
signature plus the live docstring of the exported object, and the
scenario catalogue is read out of its registry itself —
so the document cannot drift from the code.  CI runs ``--check`` to fail
when ``docs/api.md`` is stale; regenerate with::

    PYTHONPATH=src python tools/gen_api_docs.py

Section anchors are stable on purpose: ``UnknownBackendError`` messages
point users at ``docs/api.md#sht-plans``, ``#scenarios`` and
``#cholesky-precision-variants``.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

HEADER = """\
# API reference

*Generated from the package docstrings by `tools/gen_api_docs.py` — do
not edit by hand; run `PYTHONPATH=src python tools/gen_api_docs.py` to
regenerate (CI checks that this file is up to date).*

All public entry points live on the top-level `repro` namespace; the
classes below are re-exported from their home modules.  See
[`architecture.md`](architecture.md) for how the pieces fit together.
"""


def _doc(obj) -> str:
    doc = inspect.getdoc(obj) or "(no docstring)"
    return doc.rstrip()


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _entry(qualname: str, obj, *, methods: tuple[str, ...] = ()) -> str:
    """One reference entry: heading, signature and verbatim docstring."""
    lines = [f"### `{qualname}`", ""]
    if inspect.isclass(obj):
        lines.append(f"```\nclass {qualname}{_signature(obj)}\n```")
    else:
        lines.append(f"```\n{qualname}{_signature(obj)}\n```")
    lines += ["", "```text", _doc(obj), "```", ""]
    for name in methods:
        method = getattr(obj, name)
        lines += [
            f"#### `{qualname}.{name}`",
            "",
            f"```\n{name}{_signature(method)}\n```",
            "",
            "```text",
            _doc(method),
            "```",
            "",
        ]
    return "\n".join(lines)


def _catalogue(scenarios) -> str:
    """The scenario table's live name -> description rows."""
    rows = ["| name | description |", "| --- | --- |"]
    for entry in sorted(scenarios.values(), key=lambda entry: entry.name):
        alias = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        rows.append(f"| `{entry.name}`{alias} | {entry.description} |")
    return "\n".join(rows)


def generate() -> str:
    import repro
    from repro.api.artifact import EmulatorArtifact
    from repro.core.window import SpatialWindow
    from repro.data.era5_like import Era5LikeConfig, Era5LikeGenerator
    from repro.linalg import policies, tile_codes
    from repro.scenarios.campaign import (
        CampaignManifest,
        iter_chunk_arrays,
        plan_campaign,
        run_campaign,
    )
    from repro.scenarios.registry import SCENARIOS, list_scenarios, register_scenario
    from repro.scenarios.spec import ScenarioSpec
    from repro.serving.request import FieldRequest
    from repro.serving.service import EmulationService
    from repro.sht import SHTPlan
    from repro.sht.plancache import clear_plan_cache, get_plan, plan_cache_stats
    from repro.storage.chunkstore import ChunkStore
    from repro.tuning import MachineProfile, calibrate_machine
    from repro.util.registry import UnknownBackendError

    parts = [HEADER]

    parts.append("## Facade\n")
    parts.append(
        "The six-call workflow: fit once, persist, then emulate — or serve —\n"
        "anywhere.\n"
    )
    for name in ("fit", "save", "load", "emulate", "emulate_stream", "serve"):
        parts.append(_entry(f"repro.{name}", getattr(repro, name)))

    parts.append("## Serving\n")
    parts.append(
        "The on-demand emulation service: content-addressed\n"
        "`FieldRequest` objects answered from a bytes-capped chunk cache,\n"
        "an optional persistent `ChunkStore`, or single-flight synthesis,\n"
        "one flight per realization.  See [`serving.md`](serving.md) for\n"
        "the tier design and the determinism contract.\n"
    )
    parts.append(_entry("repro.FieldRequest", FieldRequest,
                        methods=("address", "stream_address",
                                 "chunk_addresses", "resolve_spec")))
    parts.append(_entry("repro.EmulationService", EmulationService,
                        methods=("get", "stats")))
    parts.append(_entry("repro.SpatialWindow", SpatialWindow,
                        methods=("from_degrees", "extract", "validate_for")))
    parts.append(_entry("repro.ChunkStore", ChunkStore,
                        methods=("put", "get", "entry", "max_abs_error",
                                 "stats")))

    parts.append("## Campaign\n")
    for qualname, obj in (
        ("repro.run_campaign", run_campaign),
        ("repro.scenarios.campaign.plan_campaign", plan_campaign),
        ("repro.iter_chunk_arrays", iter_chunk_arrays),
    ):
        parts.append(_entry(qualname, obj))
    parts.append(_entry("repro.CampaignManifest", CampaignManifest,
                        methods=("run", "collected", "to_dict", "save")))

    parts.append("## Data\n")
    parts.append(
        "The synthetic ERA5-like dataset the pipeline fits against when no\n"
        "reanalysis archive is on disk: spectrally coloured, seed-addressed\n"
        "fields on the same Gauss–Legendre grid the emulator uses.\n"
    )
    parts.append(_entry("repro.Era5LikeConfig", Era5LikeConfig))
    parts.append(_entry("repro.Era5LikeGenerator", Era5LikeGenerator,
                        methods=("generate",)))

    parts.append("## Artifacts\n")
    parts.append(_entry("repro.EmulatorArtifact", EmulatorArtifact,
                        methods=("save", "load", "to_emulator", "nbytes")))

    parts.append("## Registries\n")
    parts.append(_entry("repro.UnknownBackendError", UnknownBackendError))

    parts.append("## SHT plans\n")
    parts.append(
        "The one spherical-harmonic transform, the FFT + Wigner-d plan of\n"
        "paper Eqs. 4-8, built once per `(lmax, grid)` per process.\n"
        "`EmulatorConfig.sht_method` and `get_plan` accept `\"fast\"` (in any\n"
        "case) and nothing else; any other name raises `UnknownBackendError`.\n"
    )
    for qualname, obj in (
        ("repro.get_plan", get_plan),
        ("repro.plan_cache_stats", plan_cache_stats),
        ("repro.clear_plan_cache", clear_plan_cache),
    ):
        parts.append(_entry(qualname, obj))
    parts.append(_entry("repro.sht.SHTPlan", SHTPlan,
                        methods=("forward", "forward_realform", "inverse",
                                 "inverse_realform")))

    parts.append("## Scenarios\n")
    parts.append(
        "Named forcing pathways resolved through `repro.SCENARIOS`; any\n"
        "registered name works wherever a forcing is accepted\n"
        "(`annual_forcing=...`, campaign scenario lists).  Unknown names\n"
        "raise `UnknownBackendError` listing this catalogue.\n"
    )
    parts.append(_catalogue(SCENARIOS) + "\n")
    parts.append(_entry("repro.ScenarioSpec", ScenarioSpec))
    parts.append(_entry("repro.list_scenarios", list_scenarios))
    parts.append(_entry("repro.register_scenario", register_scenario))

    parts.append("## Tuning\n")
    parts.append(
        "Autotuning by measurement (`repro.tuning`):\n"
        "`run_campaign(..., tune=\"auto\")` times the campaign's own first\n"
        "blocks to pick `batch_size` (see its `tune` parameter above).\n"
        "Block size is bit-inert, so tuned output is bit-identical to\n"
        "untuned.  See [`tuning.md`](tuning.md).\n"
    )
    for qualname, obj in (
        ("repro.MachineProfile", MachineProfile),
        ("repro.calibrate_machine", calibrate_machine),
    ):
        parts.append(_entry(qualname, obj))

    parts.append("## Telemetry\n")
    parts.append(
        "The unified observability layer (`repro.obs`): hierarchical\n"
        "tracing spans over every hot path.  A trace aggregated by\n"
        "`tools/tracereport.py` gives latency percentiles per span name.\n"
        "Telemetry is bit-inert — emitted arrays are bit-identical with\n"
        "tracing on, off, or toggled mid-run.  See\n"
        "[`observability.md`](observability.md) for the tour.\n"
    )
    parts.append(_entry("repro.obs", repro.obs))
    for name in ("span", "tracing", "disable", "enabled", "trace_records",
                 "clear_trace"):
        parts.append(_entry(f"repro.obs.{name}", getattr(repro.obs, name)))

    parts.append("## Cholesky precision variants\n")
    parts.append(
        "The tile precision of the innovation covariance's Cholesky factor,\n"
        "selected via `EmulatorConfig.precision_variant` (in any case) from\n"
        "the closed table `repro.linalg.policies.VARIANTS`: "
        f"{', '.join(f'`{v}`' for v in policies.VARIANTS)}.\n"
        "Any other name is refused when the config is built.\n"
    )
    parts.append(f"```text\n{_doc(policies)}\n```\n")
    parts.append(_entry("repro.linalg.tile_codes", tile_codes))

    text = "\n".join(parts)
    return textwrap.dedent(text).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="fail if docs/api.md is out of date")
    args = parser.parse_args(argv)
    target = REPO_ROOT / "docs" / "api.md"
    text = generate()
    if args.check:
        current = target.read_text(encoding="utf-8") if target.exists() else ""
        if current != text:
            print("docs/api.md is stale; regenerate with "
                  "`PYTHONPATH=src python tools/gen_api_docs.py`",
                  file=sys.stderr)
            return 1
        print("docs/api.md is up to date")
        return 0
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
