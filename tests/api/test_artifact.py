"""Tests of the EmulatorArtifact save/load round trip and its error paths."""

import gc
import hashlib
import io
import json
import mmap
import os
import re
import struct
import tracemalloc
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest
from factor_state import schema_2_state, tile_members  # tests/ is on sys.path (rootdir layout)

import repro
from repro.api.artifact import (
    META_KEY,
    SCHEMA_VERSION,
    ArtifactError,
    EmulatorArtifact,
    SchemaVersionError,
)
from repro.core import ClimateEmulator, EmulatorConfig
from repro.core.spectral_model import SpectralStochasticModel
from repro.data import Era5LikeConfig, Era5LikeGenerator
from repro.linalg.precision import _PRECISIONS, Precision
from repro.util.numerics import NUMERICS_REVISION
from repro.util.registry import UnknownBackendError


class TestRoundTrip:
    def test_bit_exact_emulation_after_reload(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        loaded = ClimateEmulator.load(path)

        original = fitted_emulator.emulate(2, rng=11)
        reloaded = loaded.emulate(2, rng=11)
        assert np.array_equal(original.data, reloaded.data)

    def test_round_trip_preserves_config_and_metadata(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        loaded = ClimateEmulator.load(path)
        assert loaded.config == fitted_emulator.config
        assert loaded.is_fitted
        assert loaded.training is None  # raw ensemble is not persisted
        summary = loaded.training_summary
        original = fitted_emulator.training_summary
        assert summary.grid == original.grid
        assert summary.n_times == original.n_times
        assert summary.n_ensemble == original.n_ensemble
        np.testing.assert_array_equal(summary.forcing_annual, original.forcing_annual)

    def test_round_trip_preserves_cholesky_factor_exactly(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        loaded = ClimateEmulator.load(path)
        original = fitted_emulator.spectral_model.cholesky
        restored = loaded.spectral_model.cholesky
        assert np.array_equal(original.lower(), restored.lower())
        assert original.variant == restored.variant
        assert np.array_equal(original.tile_precision, restored.tile_precision)
        assert original.storage_bytes == restored.storage_bytes

    def test_mixed_precision_round_trip(self, small_ensemble, tmp_path):
        emulator = ClimateEmulator(
            EmulatorConfig(lmax=8, var_order=1, tile_size=16,
                           precision_variant="DP/HP", covariance_jitter=1e-4,
                           rho_grid=(0.5,))
        )
        emulator.fit(small_ensemble)
        path = tmp_path / "hp.npz"
        emulator.save(path)
        loaded = ClimateEmulator.load(path)
        a = emulator.emulate(1, rng=np.random.default_rng(5))
        b = loaded.emulate(1, rng=np.random.default_rng(5))
        assert np.array_equal(a.data, b.data)
        codes = loaded.spectral_model.cholesky.tile_precision
        assert (codes == _PRECISIONS.index(Precision.HALF)).any()  # reduced-precision tiles survived

    def test_streaming_from_loaded_emulator(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        loaded = ClimateEmulator.load(path)
        chunks = list(loaded.emulate_stream(1, n_times=30, rng=np.random.default_rng(0)))
        assert [c.n_times for c in chunks] == [24, 6]
        assert [c.metadata["stream_offset"] for c in chunks] == [0, 24]

    def test_a_saved_state_is_freed_without_the_cycle_collector(self, fitted_emulator, tmp_path):
        """Writing holds no reference cycle: with the collector off, the arrays
        a state creates are freed as soon as it is dropped, not at the
        collector's next pass — which can come after the next fit."""
        state = fitted_emulator.state_dict()
        cholesky = state["spectral_model"]["cholesky"]
        probes = [weakref.ref(cholesky[key]) for key in ("tile_precision", "panel_0_fp64")]
        del cholesky
        gc.collect()
        gc.disable()
        try:
            EmulatorArtifact(state=state).save(tmp_path / "emulator.npz")
            del state
            assert [probe() for probe in probes] == [None, None]
        finally:
            gc.enable()

    def test_save_returns_exact_path(self, fitted_emulator, tmp_path):
        path = tmp_path / "artifact-without-extension"
        returned = fitted_emulator.save(path)
        assert returned == str(path)
        assert path.exists()


def _write_old_schema(state: dict, path, schema: int, source_version: str, save) -> None:
    arrays, meta_tree = EmulatorArtifact(state=state)._flatten()
    meta = {
        "format": "repro-emulator-artifact", "schema_version": schema,
        "source_version": source_version, "state": meta_tree,
    }
    payload = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        save(fh, **arrays, **{META_KEY: payload})


def write_schema_2(emulator: ClimateEmulator, path) -> None:
    """Write ``emulator`` in the layout releases 1.13 to 1.18 wrote.

    Schema 2: stored members, the factor's tiles packed into one buffer per
    precision.
    """
    state = emulator.state_dict()
    state["spectral_model"]["cholesky"] = schema_2_state(emulator.spectral_model.cholesky)
    _write_old_schema(state, path, 2, "1.18.0", np.savez)


def write_schema_1(emulator: ClimateEmulator, path) -> None:
    """Write ``emulator`` in the layout every release before 1.13 wrote.

    Schema 1: the dense ``covariance`` beside one member per tile, all
    deflated.  The fit keeps no covariance; ``L L^T`` stands in for it (the
    loader skips the member either way).
    """
    state = emulator.state_dict()
    state["spectral_model"]["covariance"] = emulator.spectral_model.cholesky.reconstruction()
    packed = schema_2_state(emulator.spectral_model.cholesky)
    cholesky = {k: v for k, v in packed.items() if not isinstance(v, np.ndarray)}
    cholesky["tiles"] = tile_members(packed)
    state["spectral_model"]["cholesky"] = cholesky
    _write_old_schema(state, path, 1, "1.12.0", np.savez_compressed)


def members(path) -> dict[str, bytes]:
    """Every member of an NPZ archive, by name, as the bytes it stores."""
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


#: An artifact written by repro 1.18.0 (schema 2, L = 4, DP/SP/HP) and the
#: sha256 of what it emulated there (see the .json beside it).
SCHEMA_2_FILE = Path(__file__).parent / "data" / "schema2_L4_dpsphp.npz"
#: An artifact written by repro 1.19.0 (schema 3, L = 12, DP/SP/HP, 64-wide
#: tiles), likewise.
SCHEMA_3_FILE = Path(__file__).parent / "data" / "schema3_L12_dpsphp.npz"


def _recorded(path: Path) -> dict:
    """The record beside a checked-in artifact, its numerics revision checked."""
    recorded = json.loads(path.with_suffix(".json").read_text())
    assert recorded["numerics_revision"] == NUMERICS_REVISION, (
        "NUMERICS_REVISION moved: re-record the emulate sha256 and "
        f"numerics_revision in {path.with_suffix('.json').name}"
    )
    return recorded


def _emulated_sha256(emulator: ClimateEmulator, run: dict) -> str:
    data = emulator.emulate(run["n_realizations"], n_times=run["n_times"], rng=run["rng"]).data
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()


@pytest.fixture(scope="module", params=["DP", "DP/SP/HP"])
def variant_emulator(request, small_ensemble):
    return repro.fit(
        small_ensemble, lmax=8, var_order=1, tile_size=16, rho_grid=(0.5,),
        precision_variant=request.param, covariance_jitter=1e-4,
    )


class TestSchemas:
    def test_every_way_in_emulates_the_same_bits(self, variant_emulator, tmp_path):
        fitted = variant_emulator
        repro.save(fitted, tmp_path / "v4.npz")
        write_schema_2(fitted, tmp_path / "v2.npz")
        write_schema_1(fitted, tmp_path / "v1.npz")
        loads = [repro.load(tmp_path / f"v{schema}.npz") for schema in (4, 2, 1)]
        for schema, loaded in zip((4, 2, 1), loads):
            repro.save(loaded, tmp_path / f"v{schema}_resaved.npz")
        # Re-saving a load of any schema writes exactly the fresh schema-4 artifact.
        written = members(tmp_path / "v4.npz")
        assert EmulatorArtifact.load(tmp_path / "v1_resaved.npz").schema_version == SCHEMA_VERSION == 4
        for schema in (4, 2, 1):
            assert members(tmp_path / f"v{schema}_resaved.npz") == written
        emulators = [fitted, *loads, repro.load(tmp_path / "v2_resaved.npz")]
        reference, *others = [
            em.emulate(2, n_times=30, rng=7).data for em in emulators
        ]
        for other in others:
            assert np.array_equal(other, reference)

    def test_a_schema_2_file_from_1_18_emulates_its_recorded_bits(self, tmp_path):
        """Real old bytes: what 1.18.0 wrote loads, emulates the bits recorded
        at this numerics revision, and re-saves as schema 4 without moving them."""
        recorded = _recorded(SCHEMA_2_FILE)
        assert EmulatorArtifact.load(SCHEMA_2_FILE).schema_version == 2
        repro.save(repro.load(SCHEMA_2_FILE), tmp_path / "v4.npz")
        assert EmulatorArtifact.load(tmp_path / "v4.npz").schema_version == SCHEMA_VERSION
        for path in (SCHEMA_2_FILE, tmp_path / "v4.npz"):
            assert _emulated_sha256(repro.load(path), recorded["emulate"]) == recorded["sha256"]

    def test_a_schema_3_file_from_1_19_emulates_its_recorded_bits(self, tmp_path):
        """Real old bytes: what 1.19.0 wrote, with its factor's flop,
        conversion and task totals, loads with its all-double panel adopted
        as read (no copy), emulates the bits recorded at this numerics
        revision, and re-saves as schema 4 without the totals or moving them."""
        recorded = _recorded(SCHEMA_3_FILE)
        artifact = EmulatorArtifact.load(SCHEMA_3_FILE)
        assert artifact.schema_version == 3
        stored = artifact.state["spectral_model"]["cholesky"]
        assert {"flops_by_precision", "total_flops", "conversions", "n_tasks"} <= set(stored)
        matrices = {k: v for k, v in stored.items() if k.startswith("panel_") and v.ndim == 2}
        assert list(matrices) == ["panel_0_fp64"]
        # Read as schema 4 is: the matrices are views of one block.
        root, coefficients = matrices["panel_0_fp64"], artifact.state["trend_fit"]["coefficients"]
        while root.base is not None:
            root = root.base
        assert np.shares_memory(root, coefficients) and root.nbytes > matrices["panel_0_fp64"].nbytes
        loaded = artifact.to_emulator()
        factor = loaded.spectral_model.cholesky
        assert [len(parts) for _, parts in factor.panels] == [1, 3]
        assert factor.panels[0][1][0][1] is matrices["panel_0_fp64"]
        assert _emulated_sha256(loaded, recorded["emulate"]) == recorded["sha256"]
        repro.save(loaded, tmp_path / "v4.npz")
        resaved = EmulatorArtifact.load(tmp_path / "v4.npz")
        assert resaved.schema_version == SCHEMA_VERSION
        assert set(resaved.state["spectral_model"]["cholesky"]) == {
            "n", "tile_size", "variant", "tile_precision",
            "panel_0_fp64", "panel_1_fp64", "panel_1_fp32", "panel_1_fp16",
        }
        assert _emulated_sha256(repro.load(tmp_path / "v4.npz"), recorded["emulate"]) == recorded["sha256"]

    def test_schema_1_file_is_what_the_helper_claims(self, variant_emulator, tmp_path):
        write_schema_1(variant_emulator, tmp_path / "v1.npz")
        with zipfile.ZipFile(tmp_path / "v1.npz") as archive:
            names = [info.filename for info in archive.infolist()]
            assert all(info.compress_type == zipfile.ZIP_DEFLATED for info in archive.infolist())
        assert "spectral_model/covariance.npy" in names
        assert sum(n.startswith("spectral_model/cholesky/tiles/") for n in names) == 4 * 5 // 2
        artifact = EmulatorArtifact.load(tmp_path / "v1.npz")
        assert artifact.schema_version == 1
        assert "covariance" not in artifact.state["spectral_model"]  # never inflated

    def test_covariance_is_fit_time_only(
        self, variant_emulator, innovation_covariance, tmp_path
    ):
        """Neither the fitted nor the loaded model holds ``U``; both factors
        reconstruct the ``U`` recomputed from the training innovations."""
        repro.save(variant_emulator, tmp_path / "v2.npz")
        loaded = repro.load(tmp_path / "v2.npz")
        covariance = innovation_covariance(variant_emulator)
        for model in (variant_emulator.spectral_model, loaded.spectral_model):
            assert not hasattr(model, "covariance")
            # ~1e-4: the factorisation's own diagonal jitter
            assert model.cholesky.relative_error(covariance) < 1e-3
        assert loaded.parameter_count() == variant_emulator.parameter_count()
        assert loaded.storage_summary() == variant_emulator.storage_summary()

    def test_saved_layout_is_the_stored_panels(self, tmp_path):
        """The structural gate behind the load-time claim; no timing involved."""
        ensemble = Era5LikeGenerator(
            Era5LikeConfig(lmax=16, n_years=2, steps_per_year=12, n_ensemble=2), seed=1
        ).generate()
        emulator = repro.fit(
            ensemble, lmax=16, var_order=1, tile_size=32, rho_grid=(0.5,),
            precision_variant="DP/SP/HP", covariance_jitter=1e-3,
        )
        repro.save(emulator, tmp_path / "l16.npz")
        with zipfile.ZipFile(tmp_path / "l16.npz") as archive:
            infos = archive.infolist()
        assert all(info.compress_type == zipfile.ZIP_STORED for info in infos)
        stems = [info.filename.removesuffix(".npy") for info in infos]
        assert not any(stem.endswith("covariance") for stem in stems)
        factor = emulator.spectral_model.cholesky
        assert len(factor.tile_precision) == 8 * 9 // 2 and len(factor.panels) == 4
        # The codes, then one member per panel and precision it holds.
        names = [s.removeprefix("spectral_model/cholesky/") for s in stems if "/cholesky/" in s]
        assert names[0] == "tile_precision" and len(names) == 1 + sum(
            len(parts) for _, parts in factor.panels
        )
        with np.load(tmp_path / "l16.npz") as archive:
            for name in names[1:]:
                stored = archive[f"spectral_model/cholesky/{name}"]
                assert name.startswith("panel_") and stored.dtype.name == {
                    "fp64": "float64", "fp32": "float32", "fp16": "float16",
                }[name[-4:]]


def held_bytes(root: np.ndarray) -> int:
    """The memory an array root holds: a heap block its size; a mapping of a
    file (an array over a ``memoryview`` of an ``mmap``) its resident pages,
    the ``Rss`` of the mapping in ``/proc/self/smaps``."""
    if not isinstance(root.base, memoryview):
        return root.nbytes
    address, inside = root.ctypes.data, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            bounds = re.match(r"([0-9a-f]+)-([0-9a-f]+) ", line)
            if bounds:
                inside = int(bounds[1], 16) <= address < int(bounds[2], 16)
            elif inside and line.startswith("Rss:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("the mapping is not in /proc/self/smaps")


def data_offsets(path) -> dict[str, int]:
    """Where each member's array data starts in the file, from its local
    zip header and its ``.npy`` header."""
    raw = Path(path).read_bytes()
    offsets = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            name_length, extra_length = struct.unpack_from("<HH", raw, info.header_offset + 26)
            start = info.header_offset + 30 + name_length + extra_length
            stream = io.BytesIO(raw[start:start + info.compress_size])
            np.lib.format.read_magic(stream)
            np.lib.format.read_array_header_1_0(stream)
            offsets[info.filename] = start + stream.tell()
    return offsets


def is_mapped(emulator: ClimateEmulator) -> bool:
    """Whether the emulator's factor panels are read-only views of a mapping."""
    panels = [panel for _, parts in emulator.spectral_model.cholesky.panels for _, panel in parts]
    for panel in panels:
        while isinstance(panel.base, np.ndarray):
            panel = panel.base
        if not isinstance(panel.base, memoryview) or not isinstance(panel.base.obj, mmap.mmap):
            return False
    return not any(panel.flags.writeable for panel in panels)


class TestMemory:
    """Traced with tracemalloc at L = 32 (no timing): from fit to disk to load
    the factor is its row panels, never a ``k x k`` array.  ``dense`` is the
    ``8 k^2`` bytes of a float64 ``k x k`` array; the panels are 0.53 of it."""

    DENSE = 8 * 1024 ** 2

    @pytest.fixture(scope="class")
    def l32_ensemble(self):
        # A short record: the fields the fit keeps beside the factor stay
        # well below the quarter of ``dense`` the fit gate allows them.
        return Era5LikeGenerator(
            Era5LikeConfig(lmax=32, n_years=2, steps_per_year=6, n_ensemble=2), seed=1
        ).generate()

    @staticmethod
    def fit(ensemble, **config):
        return repro.fit(ensemble, lmax=32, var_order=1, tile_size=64, rho_grid=(0.5,), **config)

    @staticmethod
    def panel_bytes(emulator) -> int:
        factor = emulator.spectral_model.cholesky
        return sum(p.nbytes for _, parts in factor.panels for _, p in parts)

    def test_fit_never_holds_a_dense_factor(self, l32_ensemble):
        """The covariance is filled into the panels the factorisation
        overwrites: the fit's peak is the panels plus a quarter of ``dense``
        for everything else (the plan is already cached)."""
        self.fit(l32_ensemble)
        tracemalloc.start()
        try:
            fitted = self.fit(l32_ensemble)
            _, fit_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert self.panel_bytes(fitted) <= 0.55 * self.DENSE
        assert fit_peak <= self.panel_bytes(fitted) + 0.25 * self.DENSE

    def test_save_never_copies_the_factor(self, l32_ensemble, tmp_path):
        """The state stores views of the panels, and each is streamed into
        the archive: nothing of the factor's size is allocated."""
        fitted = self.fit(l32_ensemble)
        repro.save(fitted, tmp_path / "warm.npz")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            repro.save(fitted, tmp_path / "l32.npz")
            _, save_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert save_peak - before <= 0.1 * self.DENSE

    # Half precision on this short record needs a ridge above its roundoff.
    @pytest.mark.parametrize("variant, jitter", [("DP", 1e-6), ("DP/SP/HP", 1e-2)])
    def test_load_to_first_chunk_never_holds_a_dense_factor(self, l32_ensemble, tmp_path, variant, jitter):
        """Traced from ``repro.load`` through one generated chunk.  A DP load
        adopts the matrices it maps as the panels, views of one mapping of
        the file; a mixed-precision load fills new panels from the tiles it
        reads and keeps none of them, float16 or other.  Either way what stays
        resident is the panels plus the rest of the artifact, and the first
        chunk adds its own working set and nothing of the factor's size.
        """
        fitted = self.fit(l32_ensemble, precision_variant=variant, covariance_jitter=jitter)
        repro.save(fitted, tmp_path / "l32.npz")
        del fitted
        tracemalloc.start()
        try:
            loaded = repro.load(tmp_path / "l32.npz")
            resident, load_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            chunk = next(iter(loaded.emulate_stream(
                1, n_times=6, rng=np.random.default_rng(0)  # one model year
            )))
            _, chunk_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        roots = {}
        for _, parts in loaded.spectral_model.cholesky.panels:
            for _, panel in parts:
                while isinstance(panel.base, np.ndarray):
                    panel = panel.base
                roots[id(panel)] = panel
        if variant == "DP":
            assert len(roots) == 1 and is_mapped(loaded)  # one mapping, not one buffer each
        # The panels keep nothing else alive: no tile they were filled from
        # (float16 or other), only the file's few small non-factor matrices.
        assert sum(held_bytes(root) for root in roots.values()) < self.panel_bytes(loaded) + 0.05 * self.DENSE
        assert self.panel_bytes(loaded) <= 0.55 * self.DENSE
        assert resident < self.panel_bytes(loaded) + 0.05 * self.DENSE
        assert load_peak <= 0.65 * self.DENSE
        assert chunk_peak < resident + 0.1 * self.DENSE + chunk.data.nbytes

    def test_a_dp_load_maps_the_factor_and_copies_nothing(self, l32_ensemble, tmp_path):
        """The factor is a read-only view of the file's one mapping: what the
        load allocates stays below 5 % of the panels' bytes."""
        emulator = self.fit(l32_ensemble)
        repro.save(emulator, tmp_path / "l32.npz")
        panel_bytes = self.panel_bytes(emulator)
        del emulator
        tracemalloc.start()
        try:
            loaded = repro.load(tmp_path / "l32.npz")
            resident, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert is_mapped(loaded)
        assert resident < 0.05 * panel_bytes

    @pytest.mark.parametrize("write", [write_schema_1, write_schema_2])
    def test_an_older_schema_load_keeps_one_copy_of_the_factor(self, l32_ensemble, tmp_path, write):
        """Schemas 1 and 2 store tiles, which a load copies into new panels:
        nothing it read of the factor stays resident beside them."""
        write(self.fit(l32_ensemble), tmp_path / "old.npz")
        tracemalloc.start()
        try:
            loaded = repro.load(tmp_path / "old.npz")
            resident, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert resident < self.panel_bytes(loaded) + 0.05 * self.DENSE


def rewrite_member(source, target, member: str, change) -> None:
    """Copy an artifact with one array member replaced by ``change(array)``."""
    with np.load(source) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays[member] = change(arrays[member])
    with open(target, "wb") as fh:
        np.savez(fh, **arrays)


class TestCorruptFactor:
    @pytest.mark.parametrize(
        "member, change",
        [
            ("panel_0_fp64", lambda a: a[: len(a) // 2]),
            ("panel_0_fp64", lambda a: a.astype(np.float32)),
            ("panel_0_fp64", lambda a: a.reshape(-1, 2 * a.shape[1])),
            ("panel_0_fp64", lambda a: a.astype(object)),
            ("tile_precision", lambda a: a[:-1]),
            ("tile_precision", lambda a: np.full_like(a, 9)),
        ],
    )
    def test_inconsistent_factor_member_is_an_artifact_error(
        self, fitted_emulator, tmp_path, member, change
    ):
        fitted_emulator.save(tmp_path / "whole.npz")
        rewrite_member(
            tmp_path / "whole.npz", tmp_path / "edited.npz",
            f"spectral_model/cholesky/{member}", change,
        )
        with pytest.raises(ArtifactError, match=member):
            repro.load(tmp_path / "edited.npz")

    def test_flipped_payload_byte_is_an_artifact_error(self, fitted_emulator, tmp_path):
        fitted_emulator.save(tmp_path / "whole.npz")
        damaged = bytearray((tmp_path / "whole.npz").read_bytes())
        with zipfile.ZipFile(tmp_path / "whole.npz") as archive:
            info = archive.getinfo("spectral_model/cholesky/panel_0_fp64.npy")
        damaged[info.header_offset + 4096] ^= 0xFF  # inside the factor's payload
        (tmp_path / "damaged.npz").write_bytes(damaged)
        with pytest.raises(ArtifactError, match="panel_0_fp64"):
            repro.load(tmp_path / "damaged.npz")

    def test_flipped_header_byte_is_an_artifact_error(self, fitted_emulator, tmp_path):
        fitted_emulator.save(tmp_path / "whole.npz")
        damaged = bytearray((tmp_path / "whole.npz").read_bytes())
        name = "spectral_model/cholesky/panel_0_fp64.npy"
        damaged[data_offsets(tmp_path / "whole.npz")[name] - 1] ^= 0xFF  # ends the .npy header
        (tmp_path / "damaged.npz").write_bytes(damaged)
        with pytest.raises(ArtifactError, match="panel_0_fp64"):
            repro.load(tmp_path / "damaged.npz")

    @pytest.mark.parametrize("suffix", ["nugget_std", "cholesky/panel_0_fp64"])
    def test_missing_member_is_an_artifact_error(self, fitted_emulator, tmp_path, suffix):
        fitted_emulator.save(tmp_path / "whole.npz")
        with np.load(tmp_path / "whole.npz") as archive:
            arrays = {k: archive[k] for k in archive.files if not k.endswith(suffix)}
        with open(tmp_path / "edited.npz", "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ArtifactError, match=suffix.rpartition("/")[2]):
            repro.load(tmp_path / "edited.npz")


class TestMappedLoad:
    def test_every_member_starts_64_byte_aligned_and_np_load_reads_it(self, variant_emulator, tmp_path):
        repro.save(variant_emulator, tmp_path / "emulator.npz")
        offsets = data_offsets(tmp_path / "emulator.npz")
        assert len(offsets) > 10 and all(offset % 64 == 0 for offset in offsets.values())
        arrays, _ = variant_emulator.to_artifact()._flatten()
        with np.load(tmp_path / "emulator.npz") as archive:
            assert set(archive.files) == {*arrays, META_KEY}
            for key, array in arrays.items():
                assert archive[key].dtype == array.dtype and np.array_equal(archive[key], array)

    def test_mapped_and_read_loads_generate_the_same_bits(self, fitted_emulator, tmp_path):
        """A file ``np.savez`` writes (unaligned) is read, one ``save`` writes
        is mapped; both emulate, store and serve the same bits."""
        fitted_emulator.save(tmp_path / "mapped.npz")
        rewrite_member(tmp_path / "mapped.npz", tmp_path / "read.npz", META_KEY, lambda a: a)
        assert is_mapped(repro.load(tmp_path / "mapped.npz"))
        assert not is_mapped(repro.load(tmp_path / "read.npz"))
        outputs = []
        for name in ("mapped", "read"):
            path, root = tmp_path / f"{name}.npz", tmp_path / f"{name}_store"
            emulated = repro.load(path).emulate(2, n_times=30, rng=7).data
            manifest = repro.run_campaign(
                path, ["ssp-low", "ssp-high"], n_realizations=2, n_times=48, seed=3,
                batch_size=2, max_workers=1, collect="global-mean", store=root,
            )
            store = repro.ChunkStore(root)
            runs = [(run.to_dict(), run.collected) for run in manifest.runs]
            chunks = [store.get(a) for run in manifest.runs for a in run.chunk_addresses]
            service = repro.serve(path, seed=3)
            served = [
                service.get(repro.FieldRequest("ssp-medium", realization=r, year_start=y))
                for r, y in ((1, 0), (1, 1), (0, 1))
            ]
            outputs.append((emulated, runs, chunks, served))
        (emulated, runs, chunks, served), other = outputs
        assert np.array_equal(emulated, other[0])
        assert [r for r, _ in runs] == [r for r, _ in other[1]] and len(chunks) == 2 * 2 * 2
        for got, expected in zip(
            [c for _, c in runs] + chunks + served, [c for _, c in other[1]] + other[2] + other[3]
        ):
            assert np.array_equal(got, expected)

class TestAtomicSave:
    def test_saving_over_a_mapped_artifact_leaves_its_emulator_intact(
        self, fitted_emulator, variant_emulator, tmp_path
    ):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        mapped = repro.load(path)
        assert is_mapped(mapped)
        before = mapped.emulate(2, n_times=30, rng=5).data
        repro.save(variant_emulator, path)
        assert np.array_equal(mapped.emulate(2, n_times=30, rng=5).data, before)
        assert np.array_equal(
            repro.load(path).emulate(2, n_times=30, rng=5).data,
            variant_emulator.emulate(2, n_times=30, rng=5).data,
        )
        assert os.listdir(tmp_path) == ["emulator.npz"]
        # The replacement gets the mode a plain ``open(path, "wb")`` gives.
        with open(tmp_path / "plain", "wb"):
            pass
        assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_a_save_that_fails_midway_leaves_the_old_file_and_no_temporary(
        self, fitted_emulator, variant_emulator, tmp_path, monkeypatch
    ):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        write = EmulatorArtifact._write

        def fails_halfway(artifact, fh):
            write(artifact, fh)
            fh.truncate(fh.tell() // 2)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(EmulatorArtifact, "_write", fails_halfway)
        with pytest.raises(OSError, match="No space"):
            repro.save(variant_emulator, path)
        assert os.listdir(tmp_path) == ["emulator.npz"]
        assert np.array_equal(
            repro.load(path).emulate(2, n_times=30, rng=5).data,
            fitted_emulator.emulate(2, n_times=30, rng=5).data,
        )

    def test_a_mapped_emulator_saves_over_its_own_file(self, fitted_emulator, tmp_path):
        """The save reads the state from the very file it replaces."""
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        written = members(path)
        repro.save(repro.load(path), path)
        assert members(path) == written

    def test_saving_through_a_symlink_replaces_its_target(self, fitted_emulator, tmp_path):
        (tmp_path / "v1.npz").write_bytes(b"")
        (tmp_path / "current.npz").symlink_to("v1.npz")
        fitted_emulator.save(tmp_path / "current.npz")
        assert (tmp_path / "current.npz").is_symlink()
        assert repro.load(tmp_path / "v1.npz").config == fitted_emulator.config


class TestMeasurement:
    def test_storage_summary_measured_bytes(self, fitted_emulator, tmp_path):
        summary = fitted_emulator.storage_summary()
        assert summary["measured_artifact_bytes"] > 0
        assert summary["measured_compression_factor"] > 0
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        assert summary["measured_artifact_bytes"] == path.stat().st_size

    def test_storage_summary_quotes_parameter_and_raw_bytes(self, fitted_emulator):
        summary = fitted_emulator.storage_summary()
        assert set(summary) == {
            "raw_bytes_float32", "parameter_bytes", "compression_factor",
            "n_data_points", "n_parameters", "measured_artifact_bytes",
            "measured_compression_factor",
        }
        assert summary["parameter_bytes"] == fitted_emulator.parameter_bytes()
        assert summary["raw_bytes_float32"] == 4 * summary["n_data_points"] > 0
        assert summary["measured_artifact_bytes"] == fitted_emulator.measured_artifact_bytes()
        assert summary["measured_compression_factor"] == (
            summary["raw_bytes_float32"] / summary["measured_artifact_bytes"]
        )
        cheap = fitted_emulator.storage_summary(measure_artifact=False)
        assert cheap == {key: summary[key] for key in cheap}
        assert "measured_artifact_bytes" not in cheap

    def test_nbytes_is_the_size_a_file_gets(self, variant_emulator, tmp_path):
        """Counted through a seekable sink, without holding the archive."""
        artifact = variant_emulator.to_artifact()
        path = artifact.save(tmp_path / "emulator.npz")
        assert artifact.nbytes() == len(artifact.tobytes()) == Path(path).stat().st_size

    def test_artifact_summary(self, fitted_emulator):
        artifact = fitted_emulator.to_artifact()
        summary = artifact.summary()
        assert summary["schema_version"] == SCHEMA_VERSION
        assert summary["n_arrays"] > 0
        assert summary["nbytes"] == artifact.nbytes()
        assert summary["config"]["lmax"] == fitted_emulator.config.lmax


class TestErrorPaths:
    def test_schema_version_mismatch(self, fitted_emulator, tmp_path):
        artifact = fitted_emulator.to_artifact()
        artifact.schema_version = SCHEMA_VERSION + 1
        path = tmp_path / "future.npz"
        artifact.save(path)
        with pytest.raises(SchemaVersionError) as excinfo:
            EmulatorArtifact.load(path)
        message = str(excinfo.value)
        assert str(SCHEMA_VERSION) in message and str(SCHEMA_VERSION + 1) in message

    def test_only_schemas_1_to_4_are_read(self, fitted_emulator, tmp_path):
        assert SCHEMA_VERSION == 4
        artifact = fitted_emulator.to_artifact()
        artifact.schema_version = 0
        artifact.save(tmp_path / "ancient.npz")
        with pytest.raises(SchemaVersionError):
            EmulatorArtifact.load(tmp_path / "ancient.npz")

    def test_plain_npz_is_rejected(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(ArtifactError, match="metadata"):
            EmulatorArtifact.load(path)

    def test_non_npz_file_is_rejected(self, tmp_path):
        path = tmp_path / "not-an-archive"
        path.write_bytes(b"definitely not an npz file")
        with pytest.raises(ArtifactError):
            EmulatorArtifact.load(path)

    def test_plain_npy_is_rejected(self, tmp_path):
        path = tmp_path / "array.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(ArtifactError, match="plain array"):
            EmulatorArtifact.load(path)

    def test_truncated_artifact_is_rejected(self, fitted_emulator, tmp_path):
        path = tmp_path / "whole.npz"
        fitted_emulator.save(path)
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ArtifactError):
            EmulatorArtifact.load(truncated)

    def test_unknown_backend_name_in_state_lists_available(self, fitted_emulator):
        state = fitted_emulator.state_dict()
        state["spectral_model"]["sht_method"] = "warp-drive"
        with pytest.raises(UnknownBackendError) as excinfo:
            EmulatorArtifact(state=state).to_emulator()
        message = str(excinfo.value)
        assert "'warp-drive'" in message and "'fast'" in message

    @pytest.mark.parametrize("where", ["config", "spectral_model"])
    def test_a_state_naming_the_direct_oracle_is_refused(self, fitted_emulator, where):
        """``"direct"`` is a test oracle, not a transform the pipeline runs:
        a state carrying it, in the config or in the spectral model's own
        state, fails loudly and names the one transform."""
        state = fitted_emulator.state_dict()
        state[where]["sht_method"] = "direct"
        with pytest.raises(UnknownBackendError, match="'direct'.*'fast'"):
            EmulatorArtifact(state=state).to_emulator()
        if where == "spectral_model":
            with pytest.raises(UnknownBackendError, match="'direct'.*'fast'"):
                SpectralStochasticModel.from_state(state[where])

    def test_unfitted_emulator_has_no_state(self):
        with pytest.raises(RuntimeError):
            ClimateEmulator(EmulatorConfig(lmax=4)).state_dict()
