"""Tile-based mixed-precision Cholesky factorisation.

This is the numerical heart of the emulator's HPC layer: the covariance
matrix of the spectral innovations is tiled, each tile is assigned a storage
precision by a :class:`~repro.linalg.policies.PrecisionPolicy`, and one
left-looking blocked loop factors it in place (:func:`_factor_in_place`).
Updates accumulate in double precision but read tiles rounded to their
storage precision, so the reduced-precision variants genuinely lose the
corresponding mantissa bits — the accuracy ablations (paper Fig. 4) measure
exactly that loss.

:func:`generate_cholesky_tasks` is the paper's right-looking task DAG of the
same factorisation, with the communication metadata (broadcast fan-out,
precision conversions) the analytic performance model prices for the
sender- versus receiver-side strategies of Section V-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np
from scipy.linalg import LinAlgError, solve_triangular
from scipy.linalg import cholesky as scipy_cholesky
from scipy.linalg.blas import dgemm

from repro.linalg.flops import (
    cholesky_tile_counts, gemm_flops, potrf_flops, syrk_flops, trsm_flops,
)
from repro.linalg.policies import PrecisionPolicy, variant_policy
from repro.linalg.precision import PRECISIONS, Precision
from repro.linalg.tile import Tile
from repro.linalg.tiled_matrix import TiledSymmetricMatrix
from repro.runtime.machine import ConversionSide
from repro.runtime.task import Task

__all__ = [
    "dense_cholesky",
    "generate_cholesky_tasks",
    "CholeskyResult",
    "MixedPrecisionCholesky",
]


def dense_cholesky(matrix: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Dense double-precision lower Cholesky factor (reference algorithm).

    ``jitter`` adds a relative ridge ``jitter * mean(diag)`` to the diagonal
    before factorising, the same safeguard the paper applies when the
    empirical covariance is rank-deficient (``R (T - P) < L^2``).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if jitter > 0:
        matrix = matrix + np.eye(matrix.shape[0]) * jitter * float(np.mean(np.diag(matrix)))
    return scipy_cholesky(matrix, lower=True)


# --------------------------------------------------------------------------- #
# The factorisation: one blocked loop, in place
# --------------------------------------------------------------------------- #
def _factor_in_place(
    w: np.ndarray, tile_size: int, policy: PrecisionPolicy, jitter: float
) -> dict[tuple[int, int], Precision]:
    """Overwrite the lower triangle of ``w`` (float64, ``(n, n)``) with its factor.

    Per tile column ``b``: one GEMM against the columns to its left, the
    diagonal tile's POTRF (with the relative ``jitter`` on its diagonal),
    one TRSM for the tiles below, then each tile not stored in double is
    rounded to its precision in place, so later GEMMs read stored-precision
    values and accumulate them in float64.  Returns the policy's precision
    of every lower tile, row-major.

    Every BLAS / LAPACK call goes through ``scipy.linalg``: numpy and scipy
    each bundle an OpenBLAS with its own thread pool, and alternating the
    two leaves both pools spinning (k = 2,304 on 2 cores: 0.277 s mixed,
    0.114 s all scipy).  ``tests/lint/test_one_blas.py`` guards this.
    """
    n, nb = w.shape[0], tile_size
    n_tiles = -(-n // nb)
    precisions = policy.precision_map(n_tiles)
    # The scipy wrappers take Fortran-ordered operands: slices of the
    # transposed view reach them as column copies, not transposing ones.
    wt = w.T
    for b in range(n_tiles):
        c0, c1 = b * nb, min(b * nb + nb, n)
        if c0:
            # w[c0:, c0:c1] -= w[c0:, :c0] @ w[c0:c1, :c0].T
            wt[c0:c1, c0:] = dgemm(
                -1.0, wt[:c0, c0:c1], wt[:c0, c0:], 1.0, wt[c0:c1, c0:], trans_a=1
            )
        # POTRF of the diagonal tile, symmetrised from its lower triangle.
        a = np.tril(w[c0:c1, c0:c1])
        a = a + np.tril(a, -1).T
        if jitter > 0:
            a = a + np.eye(c1 - c0) * jitter * float(np.mean(np.diag(a)))
        scale = float(np.mean(np.abs(np.diag(a)))) or 1.0
        # Reduced-precision updates can push a diagonal tile slightly
        # indefinite; retry with an escalating ridge (the paper's "minor
        # perturbation along the diagonal" safeguard).
        for ridge in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
            try:
                l = scipy_cholesky(a + np.eye(c1 - c0) * ridge * scale, lower=True)
                break
            except LinAlgError:
                continue
        else:
            raise LinAlgError(f"diagonal tile {b} is not positive definite even with a 1e-2 ridge")
        w[c0:c1, c0:c1] = l.astype(precisions[(b, b)].dtype)
        if c1 < n:
            # w[c1:, c0:c1] = w[c1:, c0:c1] @ inv(l).T
            wt[c0:c1, c1:] = solve_triangular(
                w[c0:c1, c0:c1], wt[c0:c1, c1:], lower=True
            )
        for precision, rows in groupby(range(b + 1, n_tiles), lambda i: precisions[(i, b)]):
            if precision is not Precision.DOUBLE:
                rows = list(rows)
                block = wt[c0:c1, rows[0] * nb:rows[-1] * nb + nb]
                block[...] = block.astype(precision.dtype)
    return precisions


def _accounting(
    precisions: dict[tuple[int, int], Precision], n: int, tile_size: int, side: ConversionSide
) -> tuple[dict[str, float], int, int]:
    """``(flops_by_precision, conversions, n_tasks)``: the totals of
    :func:`generate_cholesky_tasks`, in closed form from the precision map.

    Tile ``(i, i)`` takes POTRF(i) and ``i`` SYRKs, tile ``(i, j)`` TRSM(i, j)
    and ``j`` GEMMs.  POTRF(k) broadcasts to column ``k`` below the diagonal;
    TRSM(i, k) to row ``i`` right of ``k`` and to column ``i`` below the
    diagonal.
    """
    nb, nt = tile_size, -(-n // tile_size)
    codes = np.full((nt, nt), -1)
    for key, precision in precisions.items():
        codes[key] = PRECISIONS.index(precision)
    onehot = codes == np.arange(len(PRECISIONS))[:, None, None]  # [c, i, j]
    rows = np.minimum(nb, n - nb * np.arange(nt)) / nb
    i, j = np.tril_indices(nt, -1)
    flops = np.zeros((nt, nt))
    flops[i, j] = trsm_flops(nb) * rows[i] + j * gemm_flops(nb) * rows[i] * rows[j]
    flops[np.diag_indices(nt)] = [
        potrf_flops(r * nb) + k * syrk_flops(r * nb) for k, r in enumerate(rows)
    ]
    by_precision = (onehot * flops).sum(axis=(1, 2))
    # Consumers per precision: strictly below each diagonal tile in its
    # column, and strictly right of each tile in its row.
    below = onehot.sum(axis=1) - onehot[:, np.arange(nt), np.arange(nt)]
    right = np.cumsum(onehot[:, :, ::-1], axis=2)[:, :, ::-1] - onehot

    def converted(counts: np.ndarray, source: np.ndarray) -> int:
        other = np.arange(len(PRECISIONS))[:, None] != source
        per_target = counts if side is ConversionSide.RECEIVER else counts > 0
        return int((per_target * other).sum())

    conversions = converted(below, np.diag(codes)) + converted(
        right[:, i, j] + below[:, i], codes[i, j]
    )
    flops_by_precision = {p.value: float(f) for p, f in zip(PRECISIONS, by_precision) if f}
    return flops_by_precision, conversions, sum(cholesky_tile_counts(nt).values())


# --------------------------------------------------------------------------- #
# Task generation (the performance model's view of the same factorisation)
# --------------------------------------------------------------------------- #
def generate_cholesky_tasks(
    tiled: TiledSymmetricMatrix,
    label: str = "A",
    conversion: ConversionSide | str = ConversionSide.SENDER,
) -> list[Task]:
    """Generate the right-looking tile Cholesky task list for ``tiled``.

    The tasks carry per-kernel flop counts, the compute precision taken
    from the output tile's storage precision, and communication metadata
    (broadcast fan-out and conversion counts under the chosen conversion
    side) — what the performance model and the DAG analysis price.  They
    carry no kernels: :meth:`MixedPrecisionCholesky.factorize` computes the
    factor with a blocked loop, and its accounting equals this list's
    totals.
    """
    side = ConversionSide(conversion)
    nt = tiled.n_tiles
    nb = tiled.tile_size
    tasks: list[Task] = []

    def tile_precision(i: int, j: int) -> Precision:
        return tiled.tiles[(i, j)].precision

    for k in range(nt):
        panel_priority = 2 * (nt - k)
        # POTRF on the diagonal tile.
        consumers = [tile_precision(i, k) for i in range(k + 1, nt)]
        conversions = _conversion_count(tile_precision(k, k), consumers, side)
        tasks.append(
            Task(
                name=f"POTRF({k})",
                kind="POTRF",
                reads=(),
                writes=((label, k, k),),
                flops=potrf_flops(tiled.tile_rows(k)),
                precision=tile_precision(k, k).value,
                priority=panel_priority + 1,
                metadata={
                    "panel": k,
                    "broadcast_fanout": len(consumers),
                    "conversions": conversions,
                },
            )
        )
        for i in range(k + 1, nt):
            # TRSM: panel update of tile (i, k); consumed by GEMM/SYRK tasks.
            gemm_consumers = [tile_precision(i, j) for j in range(k + 1, i)]
            gemm_consumers += [tile_precision(r, i) for r in range(i + 1, nt)]
            gemm_consumers += [tile_precision(i, i)]
            conversions = _conversion_count(tile_precision(i, k), gemm_consumers, side)
            tasks.append(
                Task(
                    name=f"TRSM({i},{k})",
                    kind="TRSM",
                    reads=((label, k, k),),
                    writes=((label, i, k),),
                    flops=trsm_flops(nb) * (tiled.tile_rows(i) / nb),
                    precision=tile_precision(i, k).value,
                    priority=panel_priority,
                    metadata={
                        "panel": k,
                        "broadcast_fanout": len(gemm_consumers),
                        "conversions": conversions,
                    },
                )
            )
        for i in range(k + 1, nt):
            tasks.append(
                Task(
                    name=f"SYRK({i},{k})",
                    kind="SYRK",
                    reads=((label, i, k),),
                    writes=((label, i, i),),
                    flops=syrk_flops(tiled.tile_rows(i)),
                    precision=tile_precision(i, i).value,
                    priority=panel_priority - 1,
                    metadata={"panel": k},
                )
            )
            for j in range(k + 1, i):
                tasks.append(
                    Task(
                        name=f"GEMM({i},{j},{k})",
                        kind="GEMM",
                        reads=((label, i, k), (label, j, k)),
                        writes=((label, i, j),),
                        flops=gemm_flops(nb)
                        * (tiled.tile_rows(i) / nb)
                        * (tiled.tile_rows(j) / nb),
                        precision=tile_precision(i, j).value,
                        priority=panel_priority - 2,
                        metadata={"panel": k},
                    )
                )
    return tasks


def _conversion_count(
    source: Precision, consumers: list[Precision], side: ConversionSide
) -> int:
    """Number of precision conversions implied by a broadcast."""
    needing = [c for c in consumers if c != source]
    if not needing:
        return 0
    if side is ConversionSide.SENDER:
        # one conversion per distinct target precision at the producer
        return len({c for c in needing})
    return len(needing)


# --------------------------------------------------------------------------- #
# Plans and results
# --------------------------------------------------------------------------- #
@dataclass
class CholeskyResult:
    """Outcome of a mixed-precision factorisation."""

    factor: TiledSymmetricMatrix
    variant: str
    tile_size: int
    flops_by_precision: dict[str, float]
    total_flops: float
    storage_bytes: int
    dense_bytes: int
    conversions: int
    n_tasks: int
    panels: list = field(init=False, repr=False)  #: see :func:`_row_panels`

    def __post_init__(self) -> None:
        self.panels = _row_panels(self.factor)

    def lower(self) -> np.ndarray:
        """Dense lower-triangular factor in float64 (C order, a fresh array)."""
        out = np.zeros((self.factor.n, self.factor.n))
        for rows, parts in self.panels:
            for cols, panel in parts:
                out[rows, cols] += panel[:rows.stop - rows.start]
        return out

    def correlate(self, z: np.ndarray) -> np.ndarray:
        """``z @ L.T`` for the rows of ``z`` ``(m, n)``, without a dense ``L``.

        One GEMM per row panel and stored precision over the whole stack
        (float32 panels multiply ``z`` rounded to float32), summed in float64.
        A row's bits do not depend on what is stacked with it — BLAS picks
        other kernels for short stacks, hence the zero rows up to the floor.
        """
        m, n = z.shape
        if m < _ROW_FLOOR:
            z = np.concatenate((z, np.zeros((_ROW_FLOOR - m, n))))
        z_as = {z.dtype: z}
        out = np.zeros((m, n))
        for rows, parts in self.panels:
            for cols, panel in parts:
                if panel.dtype not in z_as:
                    z_as[panel.dtype] = z.astype(panel.dtype)
                product = z_as[panel.dtype][:, cols] @ panel.T
                out[:, rows] += product[:m, :rows.stop - rows.start]
        return out

    def reconstruction(self) -> np.ndarray:
        """``L @ L.T`` of the computed factor."""
        l = self.lower()
        return l @ l.T

    def relative_error(self, matrix: np.ndarray) -> float:
        """``||L L^T - A||_F / ||A||_F`` against the original matrix."""
        a = np.asarray(matrix, dtype=np.float64)
        return float(np.linalg.norm(self.reconstruction() - a, "fro") / np.linalg.norm(a, "fro"))

    def factor_error(self, reference_lower: np.ndarray) -> float:
        """Relative Frobenius error of the factor against a DP reference."""
        ref = np.asarray(reference_lower, dtype=np.float64)
        return float(np.linalg.norm(self.lower() - ref, "fro") / np.linalg.norm(ref, "fro"))

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...] = 1) -> np.ndarray:
        """Draw ``N(0, L L^T)`` samples using the computed factor."""
        n = self.factor.n
        shape = (size,) if isinstance(size, int) else tuple(size)
        z = rng.standard_normal(shape + (n,))
        return self.correlate(z.reshape(-1, n)).reshape(z.shape)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Arrays and metadata from which :meth:`from_state` rebuilds the result.

        The lower-triangle tiles are packed *at their native precision*, in
        row-major ``(i, j)`` order, into one contiguous buffer per storage
        dtype (``tiles_fp64`` / ``tiles_fp32`` / ``tiles_fp16``; only the
        precisions in use appear), with ``tile_precision`` holding each
        tile's index into :data:`PRECISIONS`.  The round trip is bit-exact
        and the artifact carries the mixed-precision storage saving instead
        of re-inflating every tile to float64.
        """
        factor = self.factor
        order = _tile_order(factor.n_tiles)
        codes = np.array(
            [PRECISIONS.index(factor.tiles[key].precision) for key in order],
            dtype=np.uint8,
        )
        state = {
            "tile_precision": codes,
            "n": int(factor.n),
            "variant": str(self.variant),
            "tile_size": int(self.tile_size),
            "flops_by_precision": {k: float(v) for k, v in self.flops_by_precision.items()},
            "total_flops": float(self.total_flops),
            "storage_bytes": int(self.storage_bytes),
            "dense_bytes": int(self.dense_bytes),
            "conversions": int(self.conversions),
            "n_tasks": int(self.n_tasks),
        }
        for code, precision in enumerate(PRECISIONS):
            members = [
                factor.tiles[key].data.ravel()
                for key, tile_code in zip(order, codes) if tile_code == code
            ]
            if members:
                state[f"tiles_{precision.value}"] = np.concatenate(members)
        return state

    @classmethod
    def from_state(cls, state: dict) -> "CholeskyResult":
        """Rebuild a factorisation result from :meth:`state_dict` output.

        Also reads the schema-1 layout (a ``tiles`` dict of one array per
        tile).  Packed tiles are zero-copy views of their buffer; a buffer
        or code array that disagrees with ``n`` / ``tile_size`` raises
        ``ValueError`` naming the member.
        """
        factor = TiledSymmetricMatrix(n=int(state["n"]), tile_size=int(state["tile_size"]))
        if "tiles" in state:
            factor.tiles = _tiles_from_members(state["tiles"])
        else:
            factor.tiles = _tiles_from_packed(state, factor)
        return cls(
            factor=factor,
            variant=str(state["variant"]),
            tile_size=factor.tile_size,
            flops_by_precision={str(k): float(v) for k, v in state["flops_by_precision"].items()},
            total_flops=float(state["total_flops"]),
            storage_bytes=int(state["storage_bytes"]),
            dense_bytes=int(state["dense_bytes"]),
            conversions=int(state["conversions"]),
            n_tasks=int(state["n_tasks"]),
        )


#: Least rows of a panel (tile rows are grouped); a sixteenth of the order
#: when that is more, which keeps the zeros above the diagonal near 3 %.
_PANEL_MIN_ROWS = 64
#: :meth:`CholeskyResult.correlate` pads shorter stacks with zero rows.
_ROW_FLOOR = 32
#: Panels are zero-padded to a multiple of this many rows: a ragged GEMM
#: edge takes kernels that round differently (as for the SHT operators).
_PANEL_ROW_MULTIPLE = 8


def _row_panels(factor: TiledSymmetricMatrix) -> list:
    """The factor as contiguous lower row panels, one array per stored precision.

    ``[(rows, [(cols, panel), ...]), ...]``: per group of tile rows (the last
    takes the remainder) and precision, one C-ordered array from the first to
    the last tile column of that precision, zero where a tile has another;
    half-precision tiles are held as float32.  Tiles of a matching dtype become
    views of their panel, so the buffers they were loaded from can be released.
    """
    nb, n = factor.tile_size, factor.n
    group = -(-max(_PANEL_MIN_ROWS, n // 16) // nb)
    starts = list(range(0, factor.n_tiles, group))[:max(1, n // (group * nb))]
    panels = []
    for first, last in zip(starts, starts[1:] + [factor.n_tiles]):
        r0, r1 = first * nb, min(last * nb, n)
        parts = []
        for precision in PRECISIONS:
            keys = [
                (i, j) for i in range(first, last) for j in range(i + 1)
                if factor.tiles[(i, j)].precision is precision
            ]
            if not keys:
                continue
            c0 = min(j for _, j in keys) * nb
            c1 = min(max(j for _, j in keys) * nb + nb, n)
            panel = np.zeros(
                (r1 - r0 + (r0 - r1) % _PANEL_ROW_MULTIPLE, c1 - c0),
                dtype=np.float32 if precision is Precision.HALF else precision.dtype,
            )
            for i, j in keys:
                tile = factor.tiles[(i, j)]
                view = panel[i * nb - r0:, j * nb - c0:][:tile.shape[0], :tile.shape[1]]
                view[...] = np.tril(tile.data) if i == j else tile.data
                if view.dtype == tile.data.dtype:
                    tile.data = view
            parts.append((slice(c0, c1), panel))
        panels.append((slice(r0, r1), parts))
    return panels


def _tile_order(n_tiles: int) -> list[tuple[int, int]]:
    """Lower-triangle tile keys in the packed (row-major) order."""
    return [(i, j) for i in range(n_tiles) for j in range(i + 1)]


def _tiles_from_members(members: dict) -> dict[tuple[int, int], Tile]:
    """Schema-1 layout: one ``"<i>_<j>"`` array per tile, dtype = precision."""
    dtype_to_precision = {p.dtype: p for p in PRECISIONS}
    tiles: dict[tuple[int, int], Tile] = {}
    for key, data in members.items():
        i, j = (int(part) for part in key.split("_"))
        data = np.asarray(data)
        precision = dtype_to_precision.get(data.dtype)
        if precision is None:
            raise ValueError(f"tile ({i}, {j}) has unsupported dtype {data.dtype}")
        tiles[(i, j)] = Tile(data=data, precision=precision)
    return tiles


def _tiles_from_packed(
    state: dict, factor: TiledSymmetricMatrix
) -> dict[tuple[int, int], Tile]:
    """Slice the per-precision buffers into tile views, validating each member."""
    order = _tile_order(factor.n_tiles)
    shapes = [(factor.tile_rows(i), factor.tile_rows(j)) for i, j in order]
    sizes = np.array([rows * cols for rows, cols in shapes], dtype=np.int64)
    layout = f"n={factor.n}, tile_size={factor.tile_size}"
    codes = np.asarray(state["tile_precision"])
    if codes.shape != sizes.shape or codes.dtype != np.uint8 or np.any(
        codes >= len(PRECISIONS)
    ):
        raise ValueError(
            f"'tile_precision' must hold {len(order)} uint8 codes below "
            f"{len(PRECISIONS)} for {layout}; got {codes.dtype} of shape {codes.shape}"
        )
    tiles: dict[tuple[int, int], Tile] = {}
    for code, precision in enumerate(PRECISIONS):
        member = f"tiles_{precision.value}"
        mine = np.flatnonzero(codes == code)
        buffer = np.asarray(state.get(member, np.empty(0, precision.dtype)))
        needed = int(sizes[mine].sum())
        if buffer.dtype != precision.dtype or buffer.shape != (needed,):
            raise ValueError(
                f"{member!r} must be a flat {precision.dtype} buffer of {needed} "
                f"values ({mine.size} tiles of {layout}); got {buffer.dtype} of "
                f"shape {buffer.shape}"
            )
        stops = np.cumsum(sizes[mine])
        for t, stop in zip(mine.tolist(), stops.tolist()):
            tiles[order[t]] = Tile(
                data=buffer[stop - sizes[t]: stop].reshape(shapes[t]),
                precision=precision,
            )
    return {key: tiles[key] for key in order}


class MixedPrecisionCholesky:
    """High-level mixed-precision Cholesky driver.

    Parameters
    ----------
    tile_size:
        Tile edge length.
    variant:
        One of ``"DP"``, ``"DP/SP"``, ``"DP/SP/HP"``, ``"DP/HP"`` or a
        custom :class:`PrecisionPolicy`.
    conversion:
        ``"sender"`` or ``"receiver"`` precision-conversion placement (it
        changes the ``conversions`` count, not the factor).
    jitter:
        Relative diagonal ridge added to each diagonal tile before its
        POTRF (stabilises the aggressive half-precision variants and
        rank-deficient covariances).
    """

    def __init__(
        self,
        tile_size: int,
        variant: str | PrecisionPolicy = "DP",
        conversion: ConversionSide | str = ConversionSide.SENDER,
        jitter: float = 0.0,
    ) -> None:
        if tile_size < 1:
            raise ValueError("tile_size must be positive")
        self.tile_size = tile_size
        self.policy = variant if isinstance(variant, PrecisionPolicy) else variant_policy(variant)
        self.conversion = ConversionSide(conversion)
        self.jitter = jitter

    def factorize(self, matrix: np.ndarray) -> CholeskyResult:
        """Factorise the symmetric ``matrix`` (its lower triangle is read)."""
        return self.factorize_in_place(np.tril(np.asarray(matrix, dtype=np.float64)))

    def factorize_in_place(self, work: np.ndarray) -> CholeskyResult:
        """Factorise the matrix whose lower triangle ``work`` holds, overwriting ``work``.

        ``work`` is a square float64 array, fastest in C order; the result
        stops referencing it once its row panels are built, so the caller
        releases the buffer by dropping it.
        """
        if work.dtype != np.float64 or work.ndim != 2 or work.shape[0] != work.shape[1]:
            raise ValueError(f"matrix must be square float64, got {work.dtype} {work.shape}")
        n, nb = work.shape[0], self.tile_size
        precisions = _factor_in_place(work, nb, self.policy, self.jitter)
        factor = TiledSymmetricMatrix(n=n, tile_size=nb, policy=self.policy)
        factor.tiles = {
            (i, j): Tile(data=work[i * nb:i * nb + nb, j * nb:j * nb + nb], precision=precision)
            for (i, j), precision in precisions.items()
        }
        flops_by_precision, conversions, n_tasks = _accounting(precisions, n, nb, self.conversion)
        return CholeskyResult(
            factor=factor,
            variant=self.policy.name,
            tile_size=nb,
            flops_by_precision=flops_by_precision,
            total_flops=sum(flops_by_precision.values()),
            storage_bytes=factor.storage_bytes(),
            dense_bytes=n * n * 8,
            conversions=conversions,
            n_tasks=n_tasks,
        )
