"""Tests of the tile-based mixed-precision Cholesky factorisation."""

import numpy as np
import pytest
from factor_state import (  # tests/ is on sys.path (rootdir layout)
    decaying_covariance, packed_state, schema_2_state, tile_members,
)
from scipy.linalg.blas import dsyrk

from repro.linalg import (
    MixedPrecisionCholesky,
    Precision,
    VARIANTS,
    band_policy,
    dense_cholesky,
)
from repro.linalg.cholesky import CholeskyResult
from repro.linalg.precision import _PRECISIONS


class TestDenseReference:
    def test_matches_numpy(self, spd_matrix):
        ours = dense_cholesky(spd_matrix)
        ref = np.linalg.cholesky(spd_matrix)
        assert np.allclose(ours, ref)

    def test_jitter_recovers_rank_deficient(self):
        a = np.ones((5, 5))  # rank one, singular
        with pytest.raises(np.linalg.LinAlgError):
            dense_cholesky(a)
        l = dense_cholesky(a, jitter=1e-6)
        assert np.all(np.isfinite(l))


class TestFactorizationAccuracy:
    def test_dp_matches_dense_reference(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(spd_matrix)
        assert result.factor_error(dense_cholesky(spd_matrix)) < 1e-13
        assert result.relative_error(spd_matrix) < 1e-14

    @pytest.mark.parametrize("variant,tol", [("DP/SP", 1e-5), ("DP/SP/HP", 5e-2), ("DP/HP", 5e-2)])
    def test_reduced_precision_error_bounded(self, spd_matrix, variant, tol):
        result = MixedPrecisionCholesky(tile_size=16, variant=variant).factorize(spd_matrix)
        assert 0 < result.relative_error(spd_matrix) < tol

    def test_error_ordering_across_variants(self, spd_matrix):
        errors = {}
        for variant in VARIANTS:
            result = MixedPrecisionCholesky(tile_size=16, variant=variant).factorize(spd_matrix)
            errors[variant] = result.relative_error(spd_matrix)
        assert errors["DP"] < errors["DP/SP"] < errors["DP/HP"]

    def test_uneven_tile_sizes(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=24, variant="DP").factorize(spd_matrix)
        assert result.relative_error(spd_matrix) < 1e-13

    def test_single_tile_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 16))
        spd = a @ a.T + 8 * np.eye(8)
        result = MixedPrecisionCholesky(tile_size=8, variant="DP").factorize(spd)
        assert result.relative_error(spd) < 1e-13
        assert result.n_tasks == 1

    def test_result_accounting(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP/HP").factorize(spd_matrix)
        assert result.total_flops == pytest.approx(sum(result.flops_by_precision.values()))
        assert result.storage_bytes < result.dense_bytes == 64 * 64 * 8
        assert "fp16" in result.flops_by_precision
        assert result.variant == "DP/HP"

    def test_half_precision_tiles_store_fewer_bytes(self, spd_matrix):
        dp, hp = (
            MixedPrecisionCholesky(tile_size=8, variant=v).factorize(spd_matrix)
            for v in ("DP", "DP/HP")
        )
        assert hp.storage_bytes < dp.storage_bytes == 8 * (8 * 9 // 2) * 8 * 8

    def test_sampling_covariance(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(spd_matrix)
        rng = np.random.default_rng(3)
        samples = result.sample(rng, size=4000)
        empirical = samples.T @ samples / samples.shape[0]
        rel = np.linalg.norm(empirical - spd_matrix) / np.linalg.norm(spd_matrix)
        assert rel < 0.15

    def test_jitter_handles_near_singular(self):
        n = 32
        u = np.ones((n, 1))
        nearly_singular = u @ u.T + 1e-10 * np.eye(n)
        solver = MixedPrecisionCholesky(tile_size=8, variant="DP", jitter=1e-6)
        result = solver.factorize(nearly_singular)
        assert np.all(np.isfinite(result.lower()))

    def test_invalid_tile_size(self):
        with pytest.raises(ValueError):
            MixedPrecisionCholesky(tile_size=0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="must be square"):
            MixedPrecisionCholesky(tile_size=2).factorize(np.zeros((4, 6)))

    @pytest.mark.parametrize("n, tile_size", [(300, 24), (300, 64), (40, 64)])
    def test_dense_cholesky_is_the_dp_oracle(self, n, tile_size):
        """Ragged last tiles, several GEMM widths, a single tile."""
        cov = decaying_covariance(n, seed=n)
        result = MixedPrecisionCholesky(tile_size=tile_size, variant="DP").factorize(cov)
        assert result.factor_error(dense_cholesky(cov)) < 1e-12

    def test_only_the_lower_triangle_is_read(self, spd_matrix):
        junk = spd_matrix + np.triu(np.full_like(spd_matrix, 7.0), 1)
        solver = MixedPrecisionCholesky(tile_size=24, variant="DP/SP")
        assert np.array_equal(
            solver.factorize(junk).lower(), solver.factorize(spd_matrix).lower()
        )

    @pytest.mark.parametrize("n, tile_size", [(64, 16), (300, 48), (1089, 64)])
    def test_covariance_panels_are_the_lower_triangle_of_one_syrk(self, n, tile_size):
        """Filled a panel at a time, ``U`` is bit for bit the lower triangle
        of one ``dsyrk`` over the whole matrix, ridge included, with zeros
        above the diagonal and in the padding rows.  (Panels that start off
        a multiple of 16 rows, as 24-wide tiles make, move the low bits of
        a few near-diagonal values.)"""
        samples = np.random.default_rng(n).standard_normal((40, n))
        upper = dsyrk(1.0 / 40, samples.T, lower=0)
        covariance = upper.T.copy()
        covariance[np.diag_indices(n)] += 1e-3 * float(np.mean(np.diag(covariance)))
        solver = MixedPrecisionCholesky(tile_size=tile_size)
        work = solver.covariance_panels(samples, ridge=1e-3)
        assert [rows for rows, _ in work] == [rows for rows, _ in solver.factorize(np.eye(n)).panels]
        assembled = np.zeros((n, n))
        for rows, panel in work:
            assert panel.dtype == np.float64 and panel.flags.c_contiguous
            assert panel.shape == (-(-(rows.stop - rows.start) // 8) * 8, rows.stop)
            assert not panel[rows.stop - rows.start:].any()
            assembled[rows, :rows.stop] = panel[:rows.stop - rows.start]
        assert np.array_equal(assembled, np.tril(covariance))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_factorize_panels_adopts_or_releases_them(self, spd_matrix, variant):
        """A panel of double-precision tiles becomes the result's own array;
        a mixed one is split into its precisions.  Either way the work list
        lets go of it."""
        solver = MixedPrecisionCholesky(tile_size=8, variant=variant)
        work = solver.covariance_panels(np.random.default_rng(0).standard_normal((200, 64)))
        arrays = [panel for _, panel in work]
        result = solver.factorize_panels(work)
        held = [panel for _, parts in result.panels for _, panel in parts]
        assert work == [None] * len(arrays)
        if variant == "DP":
            assert all(any(a is p for p in held) for a in arrays)
        else:
            assert not any(np.shares_memory(a, p) for a in arrays for p in held)

def _arrays_in(obj, seen=None) -> list:
    """Every array reachable from ``obj`` through containers and attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        children = list(vars(obj).values())
    else:
        return []
    return [array for child in children for array in _arrays_in(child, seen)]


def _panel_members(state: dict) -> list:
    """The ``panel_<p>_<precision>`` members of a state, in panel order."""
    return [value for key, value in state.items() if key.startswith("panel_")]


class TestPanelState:
    """``state_dict`` stores a double-precision panel as it is and a mixed
    panel's tiles per precision; ``from_state`` adopts the first, fills the
    second, and still fills panels from the older layouts."""

    @pytest.mark.parametrize("variant", ["DP", "DP/SP/HP"])
    @pytest.mark.parametrize("tile_size", [16, 24])  # 24 leaves a ragged last tile
    def test_round_trip_is_bit_exact(self, spd_matrix, variant, tile_size):
        result = MixedPrecisionCholesky(tile_size=tile_size, variant=variant).factorize(spd_matrix)
        state = result.state_dict()
        restored = CholeskyResult.from_state(state)
        assert np.array_equal(restored.tile_precision, result.tile_precision)
        assert len(restored.panels) == len(result.panels)
        for (rows, parts), (other_rows, other_parts) in zip(result.panels, restored.panels):
            assert rows == other_rows and len(parts) == len(other_parts)
            for (cols, panel), (other_cols, other) in zip(parts, other_parts):
                assert cols == other_cols and panel.dtype == other.dtype
                assert np.array_equal(panel, other)
        assert np.array_equal(restored.lower(), result.lower())
        # A restored result serialises to the same state (load -> save -> load).
        again = restored.state_dict()
        assert again.keys() == state.keys()
        for key, value in state.items():
            assert np.array_equal(again[key], value) if isinstance(value, np.ndarray) else again[key] == value

    def test_state_holds_one_member_per_panel_and_precision(self):
        """A mixed panel stores, per precision in use, its tiles of that
        precision at their stored width, so the members take the factor's
        ``storage_bytes``; a double-precision panel is a read-only view of
        itself."""
        result = MixedPrecisionCholesky(tile_size=24, variant="DP/SP/HP").factorize(
            decaying_covariance(300)
        )
        state = result.state_dict()
        arrays = {k: v for k, v in state.items() if isinstance(v, np.ndarray)}
        assert arrays.pop("tile_precision").shape == (13 * 14 // 2,)
        assert len(result.panels) == 4  # 72-row panels, the last one 84 rows
        names = [
            f"panel_{p}_{precision.value}"
            for p, (_, parts) in enumerate(result.panels)
            for precision in _PRECISIONS
            if f"panel_{p}_{precision.value}" in arrays
        ]
        assert list(arrays) == names and len(names) == sum(len(parts) for _, parts in result.panels)
        held = [panel for _, parts in result.panels for _, panel in parts]
        for (name, member), panel in zip(arrays.items(), held):
            assert member.dtype.name == {"fp64": "float64", "fp32": "float32", "fp16": "float16"}[name[-4:]]
            assert member.ndim == 1 and not np.shares_memory(member, panel)
        assert sum(member.nbytes for member in arrays.values()) == result.storage_bytes
        dp_only = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(decaying_covariance(300))
        dp_state = dp_only.state_dict()
        assert [k for k in dp_state if k.startswith("panel_")] == [
            f"panel_{p}_fp64" for p in range(len(dp_only.panels))
        ]
        for member, (_, [(_, panel)]) in zip(_panel_members(dp_state), dp_only.panels):
            assert member.base is panel and not member.flags.writeable

    def test_a_factor_of_double_and_mixed_panels_round_trips(self):
        """With a six-tile double band, the first two 72-row panels hold double
        precision only and the last two mix in single: a load adopts the
        first two members and fills the other two panels."""
        policy = band_policy("wide", ((6, Precision.DOUBLE),), Precision.SINGLE)
        result = MixedPrecisionCholesky(tile_size=24, variant=policy).factorize(
            decaying_covariance(300)
        )
        state = {k: np.array(v) if isinstance(v, np.ndarray) else v for k, v in result.state_dict().items()}
        assert [k for k in state if k.startswith("panel_")] == [
            "panel_0_fp64", "panel_1_fp64", "panel_2_fp64", "panel_2_fp32", "panel_3_fp64", "panel_3_fp32",
        ]
        assert [state[f"panel_{p}_fp64"].ndim for p in range(4)] == [2, 2, 1, 1]
        loaded = CholeskyResult.from_state(state)
        assert [parts[0][1] is state[f"panel_{p}_fp64"] for p, (_, parts) in enumerate(loaded.panels)] == [
            True, True, False, False,
        ]
        assert np.array_equal(loaded.lower(), result.lower())
        z = np.random.default_rng(0).standard_normal((40, 300))
        assert np.array_equal(loaded.correlate(z), result.correlate(z))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_result_holds_its_panels_and_nothing_else(self, spd_matrix, variant):
        """After a fit and after a load of either layout, every array a result
        reaches (bar its tile codes) lies in its panels — no tile is held a
        second time, at half precision either.  A schema-3 load adopts a
        double-precision panel's member and keeps nothing of a mixed panel's;
        a schema-2 load keeps nothing of its buffers."""
        fitted = MixedPrecisionCholesky(tile_size=16, variant=variant).factorize(spd_matrix)
        # Fresh writable arrays, as np.load returns them.
        state = {k: np.array(v) if isinstance(v, np.ndarray) else v for k, v in fitted.state_dict().items()}
        old = schema_2_state(fitted)
        loaded, from_old = CholeskyResult.from_state(state), CholeskyResult.from_state(old)
        for result in (fitted, loaded, from_old):
            panels = [panel for _, parts in result.panels for _, panel in parts]
            held = [a for a in _arrays_in(vars(result)) if a is not result.tile_precision]
            assert held and all(any(np.shares_memory(a, p) for p in panels) for a in held)
        members = _panel_members(state)
        adopted = [panel for _, parts in loaded.panels for _, panel in parts]
        if variant == "DP":
            assert len(members) == len(adopted) == 1 and members[0] is adopted[0]
        else:
            assert not any(np.shares_memory(p, m) for p in adopted for m in members)
        buffers = [v for k, v in old.items() if k.startswith("tiles_")]
        assert not any(
            np.shares_memory(p, b) for _, parts in from_old.panels for _, p in parts for b in buffers
        )

    @pytest.mark.parametrize(
        "schema, member, corrupt, named",
        [
            (3, "panel_0_fp64", lambda a: a[:-8], "panel_0_fp64"),
            (3, "panel_0_fp64", lambda a: a.reshape(-1, 16), "panel_0_fp64"),
            (3, "panel_0_fp32", lambda a: a.astype(np.float64), "panel_0_fp32"),
            (3, "panel_0_fp32", lambda a: np.concatenate([a, a[:3]]), "panel_0_fp32"),
            (3, "tile_precision", lambda a: a[:-1], "tile_precision"),
            (3, "tile_precision", lambda a: a.astype(np.int64), "tile_precision"),
            (3, "tile_precision", lambda a: np.where(a == 1, 7, a).astype(np.uint8), "tile_precision"),
            # Re-labelling tiles moves their values out of a member's budget.
            (3, "tile_precision", lambda a: np.where(a == 1, 2, a).astype(np.uint8), "panel_0_fp32"),
            # ... or makes the panel a double-precision one, held as a matrix.
            (3, "tile_precision", lambda a: np.zeros_like(a), "panel_0_fp64"),
            (2, "tiles_fp64", lambda a: a[:-1], "tiles_fp64"),
            (2, "tiles_fp64", lambda a: np.concatenate([a, a[:3]]), "tiles_fp64"),
            (2, "tiles_fp32", lambda a: a.astype(np.float64), "tiles_fp32"),
            (2, "tiles_fp32", lambda a: a.reshape(-1, 16), "tiles_fp32"),
            # Re-labelling tiles moves their values out of a buffer's budget.
            (2, "tile_precision", lambda a: np.zeros_like(a), "tiles_fp64"),
        ],
    )
    def test_inconsistent_member_is_refused_by_name(self, spd_matrix, schema, member, corrupt, named):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP/SP").factorize(spd_matrix)
        state = result.state_dict() if schema == 3 else schema_2_state(result)
        intact = state[member]
        state[member] = corrupt(intact)
        with pytest.raises(ValueError, match=f"'{named}'"):
            CholeskyResult.from_state(state)
        del state[member]
        with pytest.raises((KeyError, ValueError), match=f"'{member}'"):
            CholeskyResult.from_state(state)
        state[member] = intact
        CholeskyResult.from_state(state)

    def test_a_member_no_code_describes_is_refused_by_name(self, spd_matrix):
        state = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(spd_matrix).state_dict()
        state["panel_0_fp32"] = np.zeros(4, np.float32)
        with pytest.raises(ValueError, match="'panel_0_fp32' is not a panel"):
            CholeskyResult.from_state(state)

    def test_reads_the_schema_1_per_tile_layout(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP/HP").factorize(spd_matrix)
        packed = schema_2_state(result)
        state = {k: v for k, v in packed.items() if not k.startswith("tile")} | {"tile_size": 16}
        state["tiles"] = tile_members(packed)
        loaded = CholeskyResult.from_state(state)
        assert np.array_equal(loaded.tile_precision, result.tile_precision)
        assert np.array_equal(loaded.lower(), result.lower())


class TestStoredTiles:
    """What the factor stores per lower tile, and what reading it back gives."""

    def test_from_dense_roundtrip_dp(self, spd_matrix):
        lower = np.tril(spd_matrix)
        state = packed_state(lower, 16, "DP")
        assert len(state["tile_precision"]) == 4 * 5 // 2
        assert np.array_equal(CholeskyResult.from_state(state).lower(), lower)

    def test_uneven_tiling(self, spd_matrix):
        lower = np.tril(spd_matrix)
        restored = CholeskyResult.from_state(packed_state(lower, 24, "DP"))
        assert len(restored.tile_precision) == 3 * 4 // 2
        assert restored.storage_bytes == 8 * (3 * 24 * 24 + 2 * 24 * 16 + 16 * 16)
        assert np.array_equal(restored.lower(), lower)

    def test_only_lower_triangle_stored(self):
        """The members are the lower triangle plus the zeros of its staircase
        and of the padding rows; ``storage_bytes`` counts the tiles alone."""
        result = MixedPrecisionCholesky(tile_size=24, variant="DP").factorize(
            decaying_covariance(300)
        )
        members = _panel_members(result.state_dict())
        assembled = np.zeros((300, 300))
        for (rows, _), member in zip(result.panels, members):
            assert member.shape == (-(-(rows.stop - rows.start) // 8) * 8, rows.stop)
            assert not member[rows.stop - rows.start:].any()
            assembled[rows, :rows.stop] = member[:rows.stop - rows.start]
        assert np.array_equal(assembled, result.lower())
        assert np.array_equal(assembled, np.tril(assembled))
        assert result.storage_bytes < sum(m.nbytes for m in members) < 0.65 * result.dense_bytes

    @pytest.mark.parametrize("variant", ["DP/SP", "DP/SP/HP", "DP/HP"])
    def test_bytes_by_precision(self, variant):
        """On disk a mixed-precision factor takes its ``storage_bytes``: each
        tile at its stored width, none of the panels' zeros."""
        lower = np.tril(np.random.default_rng(0).standard_normal((1024, 1024)))
        result = CholeskyResult.from_state(packed_state(lower, 64, variant))
        members = _panel_members(result.state_dict())
        assert sum(m.nbytes for m in members) == result.storage_bytes
        assert {m.dtype for m in members} == {
            p.dtype for p in _PRECISIONS if p.short_name in variant.split("/")
        }

    def test_storage_dtype_follows_precision(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=4, variant="DP/SP/HP").factorize(spd_matrix)
        state = result.state_dict()
        for precision in _PRECISIONS:
            assert state[f"panel_0_{precision.value}"].dtype == precision.dtype
        # Half-precision tiles multiply as float32.
        dtypes = {panel.dtype for _, parts in result.panels for _, panel in parts}
        assert dtypes == {np.dtype(np.float64), np.dtype(np.float32)}

    def test_reduced_precision_loses_accuracy_boundedly(self, spd_matrix):
        lower = np.tril(spd_matrix)
        restored = CholeskyResult.from_state(packed_state(lower, 8, "DP/HP"))
        err = np.max(np.abs(restored.lower() - lower))
        assert 0 < err < 1e-2


def test_dense_assembly_matches_the_tile_by_tile_construction(spd_matrix):
    """``lower()`` (from the row panels) equals the assemble-then-``np.tril``
    code it replaced."""
    for variant, tile_size in (("DP", 16), ("DP/SP/HP", 24)):
        factor = MixedPrecisionCholesky(tile_size=tile_size, variant=variant).factorize(
            spd_matrix
        ).lower()
        # Put junk above the diagonal of a diagonal tile: it must be dropped.
        factor[tile_size, 2 * tile_size - 1] = 3.0
        state = packed_state(factor, tile_size, variant)
        assembled = np.zeros_like(factor)
        for key, tile in tile_members(state).items():
            i, j = (int(part) * tile_size for part in key.split("_"))
            assembled[i:i + tile.shape[0], j:j + tile.shape[1]] = tile
        assert assembled[tile_size, 2 * tile_size - 1] == 3.0
        lower = CholeskyResult.from_state(state).lower()
        assert lower.flags.c_contiguous and lower.dtype == np.float64
        assert np.array_equal(lower, np.tril(assembled))
        assert not np.signbit(lower[np.triu_indices_from(lower, 1)]).any()


class TestRowPanels:
    """``correlate`` multiplies by the factor as stored: row panels per precision."""

    @pytest.mark.parametrize("n, tile_size", [(64, 16), (200, 24), (289, 64), (30, 64)])
    def test_double_precision_draw_is_the_dense_product(self, n, tile_size):
        result = MixedPrecisionCholesky(tile_size=tile_size, variant="DP").factorize(
            decaying_covariance(n)
        )
        for m in (1, 7, 40):
            z = np.random.default_rng(m).standard_normal((m, n))
            assert np.max(np.abs(result.correlate(z) - z @ result.lower().T)) < 1e-12

    @pytest.mark.parametrize("variant", ["DP/SP", "DP/SP/HP", "DP/HP"])
    @pytest.mark.parametrize("n, tile_size", [(200, 24), (289, 16)])
    def test_mixed_draw_is_within_the_factors_own_error(self, variant, n, tile_size):
        """Multiplying reduced-precision tiles in float32 costs about what
        storing them in single precision did (both round at 6e-8; the draw
        rounds ``z`` and the partial sums as well), and far less than
        half-precision storage: against the dense float64 product the draw
        stays within a small multiple of the factor's distance from the
        covariance, or of float32's unit roundoff where that is larger (a
        DP/SP factor, rounded once per tile, reconstructs these matrices to
        4e-9)."""
        cov = decaying_covariance(n)
        result = MixedPrecisionCholesky(tile_size=tile_size, variant=variant).factorize(cov)
        z = np.random.default_rng(1).standard_normal((48, n))
        dense = z @ result.lower().T
        error = np.linalg.norm(result.correlate(z) - dense) / np.linalg.norm(dense)
        assert 0 < error < 3.0 * max(result.relative_error(cov), 2.0 ** -24)

    def test_panels_hold_the_lower_triangle_once_at_stored_width(self):
        n, tile_size = 1024, 64
        lower = np.tril(np.random.default_rng(0).standard_normal((n, n)))

        def panels_of(variant):
            return CholeskyResult.from_state(packed_state(lower, tile_size, variant)).panels

        double = panels_of("DP")
        assert all(rows.stop - rows.start >= 64 for rows, _ in double)
        assert all(panel.flags.c_contiguous for _, parts in double for _, panel in parts)
        assert sum(p.nbytes for _, parts in double for _, p in parts) <= 0.55 * 8 * n * n
        mixed = panels_of("DP/SP/HP")
        dtypes = {panel.dtype for _, parts in mixed for _, panel in parts}
        assert dtypes == {np.dtype(np.float64), np.dtype(np.float32)}  # fp16 multiplies as fp32
        assert sum(p.nbytes for _, parts in mixed for _, p in parts) <= 0.35 * 8 * n * n

    def test_sample_draws_through_the_panels(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(spd_matrix)
        z = np.random.default_rng(9).standard_normal((2, 5, 64))
        sample = result.sample(np.random.default_rng(9), size=(2, 5))
        assert np.array_equal(sample, result.correlate(z.reshape(10, 64)).reshape(2, 5, 64))
