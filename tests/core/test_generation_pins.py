"""Recorded bits of the generation path on a default-config artifact.

``tests/api/data/default_L8_dp.npz`` is a fit with the default
``EmulatorConfig`` at ``lmax = 8``: ``var_order = 2``, the five-value
``rho_grid`` (every value is some location's ``rho``), double precision,
nugget on.  The JSON beside it holds the sha256 of what the artifact
emulates, stores and serves at its ``numerics_revision``:

* ``emulate(3, n_times=30, rng=7)`` (2.5 model years) with the nugget
  on and off;
* every chunk of a ``run_campaign(..., store=)``, by address;
* year 1 of a served realization, answered by resuming the stream from
  the year-start state the request for year 0 left in the service's memo.

The schema-2 and schema-3 fixtures use ``var_order = 1`` and one ``rho``;
these pins cover the VAR(2) recursion and the ``rho`` grouping of the
trend.  Re-record with ``PYTHONPATH=src python tests/core/test_generation_pins.py``
only when ``NUMERICS_REVISION`` moves.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.util.numerics import NUMERICS_REVISION

ARTIFACT = Path(__file__).parents[1] / "api" / "data" / "default_L8_dp.npz"
RECORD = ARTIFACT.with_suffix(".json")

EMULATE = {"n_realizations": 3, "n_times": 30, "rng": 7}
CAMPAIGN = {
    "scenarios": ["ssp-low", "ssp-high"], "n_realizations": 2, "n_times": 36,
    "seed": 7, "batch_size": 2,
}
SERVE = {"seed": 7, "scenario": "ssp-medium", "realization": 1, "year": 1}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def digests(workdir: Path) -> dict:
    """Every pinned digest of the artifact, computed afresh."""
    emulator = repro.load(ARTIFACT)
    emulate = {
        name: _sha256(emulator.emulate(**EMULATE, include_nugget=nugget).data)
        for name, nugget in (("nugget", True), ("no_nugget", False))
    }
    root = workdir / "store"
    manifest = repro.run_campaign(
        ARTIFACT, CAMPAIGN["scenarios"], n_realizations=CAMPAIGN["n_realizations"],
        n_times=CAMPAIGN["n_times"], seed=CAMPAIGN["seed"],
        batch_size=CAMPAIGN["batch_size"], max_workers=1, collect="none", store=root,
    )
    store = repro.ChunkStore(root)
    campaign = {
        address: _sha256(store.get(address))
        for run in manifest.runs for address in run.chunk_addresses
    }
    service = repro.serve(ARTIFACT, seed=SERVE["seed"])
    request = dict(scenario=SERVE["scenario"], realization=SERVE["realization"])
    service.get(repro.FieldRequest(**request, year_start=SERVE["year"] - 1))
    served = service.get(repro.FieldRequest(**request, year_start=SERVE["year"]))
    assert service.stats()["synthesis"]["stream_resumes"] == 1
    return {"emulate": emulate, "campaign": campaign, "serve": _sha256(served)}


def test_the_default_config_artifact_generates_its_recorded_bits(tmp_path):
    recorded = json.loads(RECORD.read_text())
    assert recorded["numerics_revision"] == NUMERICS_REVISION, (
        f"NUMERICS_REVISION moved: re-record {RECORD.name} "
        "(python tests/core/test_generation_pins.py)"
    )
    emulator = repro.load(ARTIFACT)
    assert emulator.config.var_order == 2
    assert len(np.unique(emulator.trend_fit.rho)) == len(emulator.config.rho_grid) == 5
    found = digests(tmp_path)
    assert found["emulate"] == recorded["sha256"]["emulate"]
    assert found["campaign"] == recorded["sha256"]["campaign"]
    assert len(found["campaign"]) == 2 * 2 * 3
    assert found["serve"] == recorded["sha256"]["serve"]


if __name__ == "__main__":
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    with tempfile.TemporaryDirectory() as workdir:
        record["sha256"] = digests(Path(workdir))
    record["numerics_revision"] = NUMERICS_REVISION
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
