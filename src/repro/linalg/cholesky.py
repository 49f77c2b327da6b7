"""Tile-based mixed-precision Cholesky factorisation.

This is the numerical heart of the emulator's HPC layer: the covariance
matrix of the spectral innovations is tiled, each tile is assigned a storage
precision by a :class:`~repro.linalg.policies.PrecisionPolicy`, and one
left-looking blocked loop factors it in place (:func:`_factor_in_place`).
Updates accumulate in double precision but read tiles rounded to their
storage precision, so the reduced-precision variants genuinely lose the
corresponding mantissa bits — the accuracy ablations (paper Fig. 4) measure
exactly that loss.

The factor is held in the one layout the draw computes with: lower row
panels per stored precision (:func:`_row_panels`), filled straight from the
fit's buffer or from an artifact's buffers, plus one precision code per
tile.  The factorisation's flop and precision-conversion totals are the
closed form (:func:`_accounting`) of the paper's right-looking task list,
:func:`repro.linalg.tasks.generate_cholesky_tasks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import LinAlgError, solve_triangular
from scipy.linalg import cholesky as scipy_cholesky
from scipy.linalg.blas import dgemm

from repro.linalg.flops import (
    cholesky_tile_counts, gemm_flops, potrf_flops, syrk_flops, trsm_flops,
)
from repro.linalg.policies import ConversionSide, PrecisionPolicy, variant_policy
from repro.linalg.precision import PRECISIONS, Precision

__all__ = [
    "dense_cholesky",
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


def _tile_rows(n: int, tile_size: int) -> np.ndarray:
    """Rows of each tile row (the last one may be short)."""
    return np.minimum(tile_size, n - tile_size * np.arange(-(-n // tile_size)))


def _tile_sizes(n: int, tile_size: int) -> np.ndarray:
    """Values in each lower tile, row-major."""
    heights = _tile_rows(n, tile_size)
    i, j = np.tril_indices(len(heights))
    return heights[i] * heights[j]


def _code_grid(codes: np.ndarray) -> np.ndarray:
    """``(n_tiles, n_tiles)`` precision codes from the row-major lower-tile
    codes, ``-1`` above the diagonal."""
    n_tiles = math.isqrt(2 * len(codes))
    grid = np.full((n_tiles, n_tiles), -1)
    grid[np.tril_indices(n_tiles)] = codes
    return grid


# --------------------------------------------------------------------------- #
# The factorisation: one blocked loop, in place
# --------------------------------------------------------------------------- #
def _factor_in_place(
    w: np.ndarray, tile_size: int, codes: np.ndarray, jitter: float
) -> None:
    """Overwrite the lower triangle of ``w`` (float64, ``(n, n)``) with its factor.

    Per tile column ``b``: one GEMM against the columns to its left, the
    diagonal tile's POTRF (with the relative ``jitter`` on its diagonal),
    one TRSM for the tiles below, then each tile not stored in double is
    rounded to its precision (``codes``, row-major) in place, so later
    GEMMs read stored-precision values and accumulate them in float64.

    Every BLAS / LAPACK call goes through ``scipy.linalg``: numpy and scipy
    each bundle an OpenBLAS with its own thread pool, and alternating the
    two leaves both pools spinning (k = 2,304 on 2 cores: 0.277 s mixed,
    0.114 s all scipy).  ``tests/lint/test_one_blas.py`` guards this.
    """
    n, nb = w.shape[0], tile_size
    n_tiles = -(-n // nb)
    grid = _code_grid(codes)
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
        w[c0:c1, c0:c1] = l.astype(PRECISIONS[grid[b, b]].dtype)
        if c1 < n:
            # w[c1:, c0:c1] = w[c1:, c0:c1] @ inv(l).T
            wt[c0:c1, c1:] = solve_triangular(
                w[c0:c1, c0:c1], wt[c0:c1, c1:], lower=True
            )
        for code, rows in groupby(range(b + 1, n_tiles), lambda i: grid[i, b]):
            if PRECISIONS[code] is not Precision.DOUBLE:
                rows = list(rows)
                block = wt[c0:c1, rows[0] * nb:rows[-1] * nb + nb]
                block[...] = block.astype(PRECISIONS[code].dtype)


def _accounting(
    codes: np.ndarray, n: int, tile_size: int, side: ConversionSide
) -> tuple[dict[str, float], int, int]:
    """``(flops_by_precision, conversions, n_tasks)``: the totals of
    :func:`~repro.linalg.tasks.generate_cholesky_tasks`, in closed form from
    the precision codes.

    Tile ``(i, i)`` takes POTRF(i) and ``i`` SYRKs, tile ``(i, j)`` TRSM(i, j)
    and ``j`` GEMMs.  POTRF(k) broadcasts to column ``k`` below the diagonal;
    TRSM(i, k) to row ``i`` right of ``k`` and to column ``i`` below the
    diagonal.
    """
    nb, grid = tile_size, _code_grid(codes)
    nt = len(grid)
    onehot = grid == np.arange(len(PRECISIONS))[:, None, None]  # [c, i, j]
    rows = _tile_rows(n, nb) / nb
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

    conversions = converted(below, np.diag(grid)) + converted(
        right[:, i, j] + below[:, i], grid[i, j]
    )
    flops_by_precision = {p.value: float(f) for p, f in zip(PRECISIONS, by_precision) if f}
    return flops_by_precision, conversions, sum(cholesky_tile_counts(nt).values())


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class CholeskyResult:
    """Outcome of a mixed-precision factorisation: the factor *is* its panels.

    ``tile_precision`` gives every lower tile's index into
    :data:`PRECISIONS`, row-major (``(0, 0), (1, 0), (1, 1), ...``);
    ``panels`` holds the factor's values (see :func:`_row_panels`).
    """

    n: int
    tile_size: int
    tile_precision: np.ndarray = field(repr=False)
    panels: list = field(repr=False)
    variant: str
    flops_by_precision: dict[str, float]
    total_flops: float
    conversions: int
    n_tasks: int

    @property
    def storage_bytes(self) -> int:
        """Bytes of the lower-triangle tiles at their stored precision."""
        width = np.array([p.bytes_per_element for p in PRECISIONS])
        return int((_tile_sizes(self.n, self.tile_size) * width[self.tile_precision]).sum())

    @property
    def dense_bytes(self) -> int:
        """Bytes of the dense float64 ``n x n`` matrix."""
        return 8 * self.n * self.n

    def lower(self) -> np.ndarray:
        """Dense lower-triangular factor in float64 (C order, a fresh array)."""
        out = np.zeros((self.n, self.n))
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
        n = self.n
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
        state = {
            "tile_precision": self.tile_precision.copy(),
            "n": int(self.n),
            "variant": str(self.variant),
            "tile_size": int(self.tile_size),
            "flops_by_precision": {k: float(v) for k, v in self.flops_by_precision.items()},
            "total_flops": float(self.total_flops),
            "storage_bytes": self.storage_bytes,
            "dense_bytes": self.dense_bytes,
            "conversions": int(self.conversions),
            "n_tasks": int(self.n_tasks),
        }
        sizes = _tile_sizes(self.n, self.tile_size)
        buffers = {
            code: np.empty(int(sizes[self.tile_precision == code].sum()), PRECISIONS[code].dtype)
            for code in np.unique(self.tile_precision).tolist()
        }
        filled = dict.fromkeys(buffers, 0)
        for code, tile in self._tiles():
            start = filled[code]
            filled[code] += tile.size
            # float16 tiles multiply as float32; narrowing them back is exact.
            buffers[code][start:filled[code]].reshape(tile.shape)[...] = tile
        for code, buffer in buffers.items():
            state[f"tiles_{PRECISIONS[code].value}"] = buffer
        return state

    def _tiles(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(code, view)`` of every lower tile, row-major, as views of its panel."""
        nb, grid = self.tile_size, _code_grid(self.tile_precision)
        heights = _tile_rows(self.n, nb).tolist()
        for rows, parts in self.panels:
            first, last = rows.start // nb, -(-rows.stop // nb)
            in_use = [c for c in range(len(PRECISIONS)) if (grid[first:last] == c).any()]
            by_code = dict(zip(in_use, parts))
            for i in range(first, last):
                for j in range(i + 1):
                    cols, panel = by_code[grid[i, j]]
                    r0, c0 = i * nb - rows.start, j * nb - cols.start
                    yield int(grid[i, j]), panel[r0:r0 + heights[i], c0:c0 + heights[j]]

    @classmethod
    def from_state(cls, state: dict) -> "CholeskyResult":
        """Rebuild a factorisation result from :meth:`state_dict` output.

        Also reads the schema-1 layout (a ``tiles`` dict of one array per
        tile).  The panels are filled straight from the state's arrays and
        share no memory with them; a buffer or code array that disagrees
        with ``n`` / ``tile_size`` raises ``ValueError`` naming the member.
        """
        n, nb = int(state["n"]), int(state["tile_size"])
        if "tiles" in state:
            codes, tile = _member_tiles(state["tiles"], n, nb)
        else:
            codes, tile = _packed_tiles(state, n, nb)
        return cls(
            n=n,
            tile_size=nb,
            tile_precision=codes,
            panels=_row_panels(n, nb, codes, tile),
            variant=str(state["variant"]),
            flops_by_precision={str(k): float(v) for k, v in state["flops_by_precision"].items()},
            total_flops=float(state["total_flops"]),
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

#: ``tile(i, j)`` -> the values of lower tile ``(i, j)``, in any float dtype
#: that holds its stored precision exactly.
_TileAccessor = Callable[[int, int], np.ndarray]


def _row_panels(n: int, tile_size: int, codes: np.ndarray, tile: _TileAccessor) -> list:
    """The factor as contiguous lower row panels, one array per stored precision.

    ``[(rows, [(cols, panel), ...]), ...]``: per group of tile rows (the last
    takes the remainder) and precision in use, one C-ordered array from the
    first to the last tile column of that precision, zero where a tile has
    another and above the diagonal; half-precision tiles are held as
    float32.  Each tile is copied once, from ``tile`` into its panel.
    """
    nb, grid = tile_size, _code_grid(codes)
    n_tiles = len(grid)
    group = -(-max(_PANEL_MIN_ROWS, n // 16) // nb)
    starts = list(range(0, n_tiles, group))[:max(1, n // (group * nb))]
    panels = []
    for first, last in zip(starts, starts[1:] + [n_tiles]):
        r0, r1 = first * nb, min(last * nb, n)
        parts = []
        for code, precision in enumerate(PRECISIONS):
            rows, cols = np.nonzero(grid[first:last] == code)
            if not rows.size:
                continue
            c0, c1 = int(cols.min()) * nb, min(int(cols.max()) * nb + nb, n)
            panel = np.zeros(
                (r1 - r0 + (r0 - r1) % _PANEL_ROW_MULTIPLE, c1 - c0),
                dtype=np.float32 if precision is Precision.HALF else precision.dtype,
            )
            for i, j in zip((rows + first).tolist(), cols.tolist()):
                values = tile(i, j)
                view = panel[i * nb - r0:, j * nb - c0:][:values.shape[0], :values.shape[1]]
                view[...] = np.tril(values) if i == j else values
            parts.append((slice(c0, c1), panel))
        panels.append((slice(r0, r1), parts))
    return panels


def _member_tiles(members: dict, n: int, tile_size: int) -> tuple[np.ndarray, _TileAccessor]:
    """Schema-1 layout: one ``"<i>_<j>"`` array per tile, dtype = precision."""
    code_of = {p.dtype: code for code, p in enumerate(PRECISIONS)}
    codes = []
    for i, j in zip(*np.tril_indices(len(_tile_rows(n, tile_size)))):
        dtype = np.asarray(members[f"{i}_{j}"]).dtype
        if dtype not in code_of:
            raise ValueError(f"tile ({i}, {j}) has unsupported dtype {dtype}")
        codes.append(code_of[dtype])
    return np.array(codes, dtype=np.uint8), lambda i, j: np.asarray(members[f"{i}_{j}"])


def _packed_tiles(state: dict, n: int, tile_size: int) -> tuple[np.ndarray, _TileAccessor]:
    """Schema-2 layout: validate the per-precision buffers, and slice tiles from them."""
    heights = _tile_rows(n, tile_size).tolist()
    sizes = _tile_sizes(n, tile_size)
    layout = f"n={n}, tile_size={tile_size}"
    codes = np.asarray(state["tile_precision"])
    if codes.shape != sizes.shape or codes.dtype != np.uint8 or np.any(
        codes >= len(PRECISIONS)
    ):
        raise ValueError(
            f"'tile_precision' must hold {sizes.size} uint8 codes below "
            f"{len(PRECISIONS)} for {layout}; got {codes.dtype} of shape {codes.shape}"
        )
    buffers, starts = [], np.zeros_like(sizes)
    for code, precision in enumerate(PRECISIONS):
        member = f"tiles_{precision.value}"
        mine = codes == code
        buffer = np.asarray(state.get(member, np.empty(0, precision.dtype)))
        needed = int(sizes[mine].sum())
        if buffer.dtype != precision.dtype or buffer.shape != (needed,):
            raise ValueError(
                f"{member!r} must be a flat {precision.dtype} buffer of {needed} "
                f"values ({int(mine.sum())} tiles of {layout}); got {buffer.dtype} of "
                f"shape {buffer.shape}"
            )
        starts[mine] = np.cumsum(sizes[mine]) - sizes[mine]
        buffers.append(buffer)

    def tile(i: int, j: int) -> np.ndarray:
        t = i * (i + 1) // 2 + j
        return buffers[codes[t]][starts[t]:starts[t] + sizes[t]].reshape(heights[i], heights[j])

    return codes.copy(), tile


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

        ``work`` is a square float64 array, fastest in C order; the row
        panels are filled from it and do not reference it, so the caller
        releases the buffer by dropping it.
        """
        if work.dtype != np.float64 or work.ndim != 2 or work.shape[0] != work.shape[1]:
            raise ValueError(f"matrix must be square float64, got {work.dtype} {work.shape}")
        n, nb = work.shape[0], self.tile_size
        codes = np.array(
            [PRECISIONS.index(p) for p in self.policy.precision_map(-(-n // nb)).values()],
            dtype=np.uint8,
        )
        _factor_in_place(work, nb, codes, self.jitter)
        flops_by_precision, conversions, n_tasks = _accounting(codes, n, nb, self.conversion)
        return CholeskyResult(
            n=n,
            tile_size=nb,
            tile_precision=codes,
            panels=_row_panels(
                n, nb, codes, lambda i, j: work[i * nb:i * nb + nb, j * nb:j * nb + nb]
            ),
            variant=self.policy.name,
            flops_by_precision=flops_by_precision,
            total_flops=sum(flops_by_precision.values()),
            conversions=conversions,
            n_tasks=n_tasks,
        )
