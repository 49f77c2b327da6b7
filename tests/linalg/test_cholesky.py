"""Tests of the tile-based mixed-precision Cholesky factorisation."""

import numpy as np
import pytest
from factor_state import packed_state, tile_members  # tests/ is on sys.path (rootdir layout)

import repro
from repro.linalg import (
    PRECISIONS,
    MixedPrecisionCholesky,
    VARIANTS,
    dense_cholesky,
    generate_cholesky_tasks,
    variant_policy,
)
from repro.linalg.cholesky import CholeskyResult
from repro.linalg.flops import cholesky_flops, cholesky_tile_counts
from repro.linalg import tasks as tasks_module
from repro.linalg.tasks import Task, build_task_graph


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


class TestTaskGeneration:
    def test_task_counts_match_formula(self):
        tasks = generate_cholesky_tasks(64, 16, "DP")
        counts = cholesky_tile_counts(4)
        by_kind = {}
        for t in tasks:
            by_kind[t.kind] = by_kind.get(t.kind, 0) + 1
        assert by_kind == counts

    def test_flops_sum_close_to_dense_count(self):
        tasks = generate_cholesky_tasks(64, 8, "DP")
        total = sum(t.flops for t in tasks)
        assert total == pytest.approx(cholesky_flops(64), rel=0.1)

    def test_dag_is_acyclic_with_expected_dependencies(self):
        graph = build_task_graph(generate_cholesky_tasks(64, 16, "DP"))
        # First POTRF has no predecessors; last POTRF depends on earlier work.
        assert graph.predecessors[0] == []
        last_potrf = [t.name for t in graph.tasks].index("POTRF(3)")
        assert [graph.tasks[i].name for i in graph.predecessors[last_potrf]] == ["SYRK(3,2)"]

    def test_precision_assignment_follows_policy(self):
        tasks = generate_cholesky_tasks(64, 8, "DP/HP")
        potrf = [t for t in tasks if t.kind == "POTRF"]
        gemm_far = [t for t in tasks if t.kind == "GEMM" and t.name == "GEMM(7,1,0)"]
        assert all(t.precision == "fp64" for t in potrf)
        assert gemm_far and gemm_far[0].precision == "fp16"

    def test_sender_conversion_counts_fewer_than_receiver(self):
        sender, receiver = (
            sum(t.conversions for t in generate_cholesky_tasks(64, 8, "DP/HP", conversion=side))
            for side in ("sender", "receiver")
        )
        assert sender < receiver

    def test_a_policy_object_is_taken_as_is(self):
        policy = variant_policy("DP/SP")
        solver = MixedPrecisionCholesky(tile_size=16, variant=policy)
        assert solver.policy is policy
        by_name = generate_cholesky_tasks(64, 16, "DP/SP")
        assert [t.precision for t in generate_cholesky_tasks(64, 16, policy)] == [
            t.precision for t in by_name
        ]


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
        cov = TestRowPanels.covariance(n, seed=n)
        result = MixedPrecisionCholesky(tile_size=tile_size, variant="DP").factorize(cov)
        assert result.factor_error(dense_cholesky(cov)) < 1e-12

    def test_only_the_lower_triangle_is_read(self, spd_matrix):
        junk = spd_matrix + np.triu(np.full_like(spd_matrix, 7.0), 1)
        solver = MixedPrecisionCholesky(tile_size=24, variant="DP/SP")
        assert np.array_equal(
            solver.factorize(junk).lower(), solver.factorize(spd_matrix).lower()
        )

    def test_factorize_in_place_overwrites_the_buffer(self, spd_matrix):
        """The buffer ends up holding the factor, which the result's row
        panels copy and do not reference."""
        work = np.tril(spd_matrix)
        result = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize_in_place(work)
        assert np.array_equal(np.tril(work), result.lower())
        assert not any(np.shares_memory(p, work) for _, parts in result.panels for _, p in parts)
        with pytest.raises(ValueError, match="must be square float64"):
            MixedPrecisionCholesky(tile_size=16).factorize_in_place(work.astype(np.float32))

    def test_no_task_list_on_the_factorisation_path(self, small_ensemble, monkeypatch):
        """``factorize`` and ``repro.fit`` run with the task model disabled."""

        def disabled(*args, **kwargs):
            raise AssertionError("the factorisation built the task list")

        monkeypatch.setattr(tasks_module, "generate_cholesky_tasks", disabled)
        monkeypatch.setattr(Task, "__init__", disabled)
        spd = TestRowPanels.covariance(100)
        result = MixedPrecisionCholesky(tile_size=16, variant="DP/SP/HP").factorize(spd)
        assert result.n_tasks == sum(cholesky_tile_counts(7).values())
        emulator = repro.fit(
            small_ensemble, lmax=8, var_order=1, tile_size=16, rho_grid=(0.5,),
            precision_variant="DP/SP",
        )
        assert emulator.spectral_model.cholesky.n == 64


@pytest.mark.parametrize("conversion", ["sender", "receiver"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tile_size", [16, 24, 64])
@pytest.mark.parametrize("n", [64, 100, 300])
def test_closed_form_accounting_is_the_task_lists_totals(n, tile_size, variant, conversion):
    """``flops_by_precision`` / ``conversions`` / ``n_tasks`` of a factorisation
    equal the sums over the task list the performance model prices, and
    ``storage_bytes`` the sum over its tiles at stored width."""
    spd = TestRowPanels.covariance(n)
    result = MixedPrecisionCholesky(tile_size, variant, conversion).factorize(spd)
    tasks = generate_cholesky_tasks(n, tile_size, variant, conversion=conversion)
    flops = {}
    for task in tasks:
        flops[task.precision] = flops.get(task.precision, 0.0) + task.flops
    assert result.flops_by_precision == pytest.approx(flops, rel=1e-12)
    assert result.total_flops == pytest.approx(sum(flops.values()), rel=1e-12)
    assert result.conversions == sum(t.conversions for t in tasks)
    assert result.n_tasks == len(tasks)
    rows = [min(tile_size, n - i * tile_size) for i in range(-(-n // tile_size))]
    assert result.storage_bytes == sum(
        rows[i] * rows[j] * precision.bytes_per_element
        for (i, j), precision in variant_policy(variant).precision_map(len(rows)).items()
    )


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


class TestPackedState:
    """``state_dict`` packs the tiles per precision; ``from_state`` fills panels."""

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

    def test_state_holds_one_buffer_per_precision_in_use(self, spd_matrix):
        solver = MixedPrecisionCholesky(tile_size=16, variant="DP/SP/HP")
        state = solver.factorize(spd_matrix).state_dict()
        arrays = {k: v for k, v in state.items() if isinstance(v, np.ndarray)}
        assert set(arrays) == {"tile_precision", "tiles_fp64", "tiles_fp32", "tiles_fp16"}
        assert arrays["tile_precision"].dtype == np.uint8
        assert arrays["tile_precision"].shape == (4 * 5 // 2,)
        assert sum(a.size for k, a in arrays.items() if k != "tile_precision") == 10 * 16 * 16
        dp_only = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(spd_matrix)
        assert "tiles_fp32" not in dp_only.state_dict()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_result_holds_its_panels_and_nothing_else(self, spd_matrix, variant):
        """After a fit and after a load, every array a result reaches (bar its
        tile codes) lies in its panels — no tile is held a second time, at
        half precision either — and no panel keeps the loaded buffers alive."""
        fitted = MixedPrecisionCholesky(tile_size=16, variant=variant).factorize(spd_matrix)
        state = fitted.state_dict()
        buffers = [value for value in state.values() if isinstance(value, np.ndarray)]
        for result in (fitted, CholeskyResult.from_state(state)):
            panels = [panel for _, parts in result.panels for _, panel in parts]
            held = [a for a in _arrays_in(vars(result)) if a is not result.tile_precision]
            assert held and all(any(np.shares_memory(a, p) for p in panels) for a in held)
            assert not any(np.shares_memory(p, b) for p in panels for b in buffers)

    @pytest.mark.parametrize(
        "member, corrupt, named",
        [
            ("tiles_fp64", lambda a: a[:-1], "tiles_fp64"),
            ("tiles_fp64", lambda a: np.concatenate([a, a[:3]]), "tiles_fp64"),
            ("tiles_fp32", lambda a: a.astype(np.float64), "tiles_fp32"),
            ("tiles_fp32", lambda a: a.reshape(-1, 16), "tiles_fp32"),
            ("tile_precision", lambda a: a[:-1], "tile_precision"),
            ("tile_precision", lambda a: a.astype(np.int64), "tile_precision"),
            ("tile_precision", lambda a: np.where(a == 1, 7, a).astype(np.uint8), "tile_precision"),
            # Re-labelling tiles moves their values out of a buffer's budget.
            ("tile_precision", lambda a: np.zeros_like(a), "tiles_fp64"),
        ],
    )
    def test_inconsistent_member_is_refused_by_name(self, spd_matrix, member, corrupt, named):
        state = MixedPrecisionCholesky(tile_size=16, variant="DP/SP").factorize(spd_matrix).state_dict()
        intact = state[member]
        state[member] = corrupt(intact)
        with pytest.raises(ValueError, match=f"'{named}'"):
            CholeskyResult.from_state(state)
        del state[member]
        with pytest.raises((KeyError, ValueError), match=f"'{member}'"):
            CholeskyResult.from_state(state)
        state[member] = intact
        CholeskyResult.from_state(state)

    def test_reads_the_schema_1_per_tile_layout(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP/HP").factorize(spd_matrix)
        packed = result.state_dict()
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

    def test_rejects_bad_tile_size(self):
        with pytest.raises(ValueError, match="tile_size"):
            generate_cholesky_tasks(64, 0, "DP")

    def test_only_lower_triangle_stored(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(spd_matrix)
        state = result.state_dict()
        assert state["tiles_fp64"].shape == (4 * 5 // 2 * 16 * 16,)
        assert result.storage_bytes == state["tiles_fp64"].nbytes < result.dense_bytes

    def test_bytes_by_precision(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=8, variant="DP/SP").factorize(spd_matrix)
        state = result.state_dict()
        buffers = [state[f"tiles_{p.value}"] for p in PRECISIONS if f"tiles_{p.value}" in state]
        assert [b.dtype for b in buffers] == [np.float64, np.float32]
        assert sum(b.nbytes for b in buffers) == result.storage_bytes

    def test_storage_dtype_follows_precision(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=4, variant="DP/SP/HP").factorize(spd_matrix)
        state = result.state_dict()
        for precision in PRECISIONS:
            assert state[f"tiles_{precision.value}"].dtype == precision.dtype
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

    @staticmethod
    def covariance(n, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 2 * n))
        decay = np.exp(-np.abs(np.subtract.outer(np.arange(n), np.arange(n))) / (n / 5))
        return x @ x.T / (2 * n) * decay + 0.5 * np.eye(n)

    @pytest.mark.parametrize("n, tile_size", [(64, 16), (200, 24), (289, 64), (30, 64)])
    def test_double_precision_draw_is_the_dense_product(self, n, tile_size):
        result = MixedPrecisionCholesky(tile_size=tile_size, variant="DP").factorize(
            self.covariance(n)
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
        cov = self.covariance(n)
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
