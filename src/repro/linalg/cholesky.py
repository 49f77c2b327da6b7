"""Tile-based mixed-precision Cholesky factorisation.

This is the numerical heart of the emulator's HPC layer: the covariance
matrix of the spectral innovations is tiled, each tile is assigned a storage
precision by a :class:`~repro.linalg.policies.PrecisionPolicy`, and one
left-looking blocked loop factors it in place (:func:`_factor_panels`).
Updates accumulate in double precision but read tiles rounded to their
storage precision, so the reduced-precision variants genuinely lose the
corresponding mantissa bits — the accuracy ablations (paper Fig. 4) measure
exactly that loss.

The factor has one layout from fit to disk to load: lower row panels per
stored precision (:func:`_panel_bounds`), plus one precision code per tile.
The fit fills float64 panels with the covariance and factors them in place;
an artifact stores a double-precision panel as it is, which a load adopts,
and a mixed panel's tiles at their stored precision.  The
factorisation's flop and precision-conversion totals are the closed form
(:func:`_accounting`) of the paper's right-looking task list,
``generate_cholesky_tasks`` in ``benchmarks/paper_model/tasks.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, solve_triangular
from scipy.linalg import cholesky as scipy_cholesky
from scipy.linalg.blas import dgemm, dsyrk

from repro.linalg.flops import (
    cholesky_tile_counts, gemm_flops, potrf_flops, syrk_flops, trsm_flops,
)
from repro.linalg.policies import ConversionSide, PrecisionPolicy, variant_policy
from repro.linalg.precision import _PRECISIONS, Precision

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
# The layout: lower row panels per stored precision
# --------------------------------------------------------------------------- #
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


def _panel_bounds(n: int, tile_size: int) -> list[tuple[int, int, slice]]:
    """``(first, last, rows)`` of each row panel: its tile rows and factor rows.

    Tile rows are grouped until a panel has at least :data:`_PANEL_MIN_ROWS`
    rows (``n / 16`` when that is more); the last group takes the remainder.
    """
    n_tiles = -(-n // tile_size)
    group = -(-max(_PANEL_MIN_ROWS, n // 16) // tile_size)
    starts = list(range(0, n_tiles, group))[:max(1, n // (group * tile_size))]
    return [
        (first, last, slice(first * tile_size, min(last * tile_size, n)))
        for first, last in zip(starts, starts[1:] + [n_tiles])
    ]


def _height(rows: slice) -> int:
    """A panel's row count: its factor rows, zero-padded."""
    return rows.stop - rows.start + (rows.start - rows.stop) % _PANEL_ROW_MULTIPLE


def _part_columns(grid: np.ndarray, first: int, last: int, n: int, nb: int) -> list:
    """``[(code, cols), ...]`` of the precisions in use in tile rows
    ``first:last``, in :data:`_PRECISIONS` order: from its first to its last tile."""
    used = [np.nonzero((grid[first:last] == c).any(axis=0))[0] for c in range(len(_PRECISIONS))]
    return [
        (code, slice(int(cols[0]) * nb, min(int(cols[-1] + 1) * nb, n)))
        for code, cols in enumerate(used) if cols.size
    ]


def _all_double(grid: np.ndarray, first: int, last: int) -> bool:
    """Whether every lower tile of tile rows ``first:last`` is double precision."""
    codes = grid[first:last]
    return bool(np.all(codes[codes >= 0] == _PRECISIONS.index(Precision.DOUBLE)))


def _tiles_of(grid: np.ndarray, first: int, last: int, code: int) -> list:
    """``[(i, j), ...]`` of the tiles of precision ``code`` in tile rows
    ``first:last``, row-major."""
    return [(first + int(i), int(j)) for i, j in zip(*np.nonzero(grid[first:last] == code))]


def _parts(grid: np.ndarray, bound: tuple, n: int, nb: int, tile: _TileAccessor) -> list:
    """``[(cols, part), ...]`` of one row panel (``bound`` from
    :func:`_panel_bounds`): per precision in use, a zeroed array from its
    first to its last tile column with its tiles copied in from ``tile``
    (half precision held as float32).  A panel of double-precision tiles is
    one array in the double-precision layout."""
    first, last, rows = bound
    parts = []
    for code, cols in _part_columns(grid, first, last, n, nb):
        held = np.float32 if _PRECISIONS[code] is Precision.HALF else _PRECISIONS[code].dtype
        part = np.zeros((_height(rows), cols.stop - cols.start), held)
        for i, j in _tiles_of(grid, first, last, code):
            values = tile(i, j)
            view = part[i * nb - rows.start:, j * nb - cols.start:][:values.shape[0], :values.shape[1]]
            view[...] = np.tril(values) if i == j else values
        parts.append((cols, part))
    return parts


def _split(grid: np.ndarray, bound: tuple, n: int, nb: int, panel: np.ndarray) -> list:
    """The parts of a finished float64 panel in the double-precision layout:
    the panel itself when all its tiles are double."""
    first, last, rows = bound
    if _all_double(grid, first, last):
        return [(slice(0, rows.stop), panel)]
    return _parts(grid, bound, n, nb, lambda i, j: panel[i * nb - rows.start:, j * nb:][:nb, :nb])


def _working_panels(n: int, tile_size: int) -> list:
    """Zeroed float64 ``[(rows, panel), ...]``: each panel spans the columns
    from the first to its last diagonal tile (the double-precision layout)."""
    bounds = _panel_bounds(n, tile_size)
    return [(rows, np.zeros((_height(rows), rows.stop))) for _, _, rows in bounds]


# --------------------------------------------------------------------------- #
# The factorisation: one blocked loop over the row panels, in place
# --------------------------------------------------------------------------- #
def _factor_panels(work: list, tile_size: int, codes: np.ndarray, jitter: float) -> list:
    """Overwrite the float64 row panels ``work`` with the factor; returns its panels.

    Per tile column ``b``: per panel from tile row ``b`` down, one GEMM
    against the columns to the left; the diagonal tile's POTRF (with the
    relative ``jitter`` on its diagonal); per panel one TRSM for the tiles
    below; then each tile not stored in double is rounded to its precision
    (``codes``, row-major) in place, so later GEMMs read stored-precision
    values and accumulate them in float64.  A panel is final after its last
    tile column: it leaves ``work`` then, split by precision (:func:`_split`).

    Every BLAS / LAPACK call goes through ``scipy.linalg``: numpy's and
    scipy's OpenBLAS pools spin against each other when calls alternate
    (``tests/lint/test_one_blas.py``).
    """
    nb, grid, n = tile_size, _code_grid(codes), work[-1][0].stop
    bounds = _panel_bounds(n, nb)
    owner = [p for p, (first, last, _) in enumerate(bounds) for _ in range(first, last)]
    factor = []
    for b in range(len(grid)):
        c0, c1, p = b * nb, min(b * nb + nb, n), owner[b]
        rows, panel = work[p]
        tile_row = panel[c0 - rows.start:c1 - rows.start]
        # The scipy wrappers take Fortran-ordered operands: slices of a
        # panel's transpose reach them as column copies, not transposing ones.
        below = [(rows_q, panel_q.T) for rows_q, panel_q in work[p:]]
        if c0:
            left = np.asfortranarray(tile_row.T[:c0])  # copied once, not per panel
            for rows_q, wt in below:
                r = slice(max(c0, rows_q.start) - rows_q.start, rows_q.stop - rows_q.start)
                # panel_q[r, c0:c1] -= panel_q[r, :c0] @ tile_row[:, :c0].T
                wt[c0:c1, r] = dgemm(-1.0, left, wt[:c0, r], 1.0, wt[c0:c1, r], trans_a=1)
        # POTRF of the diagonal tile, symmetrised from its lower triangle.
        a = np.tril(tile_row[:, c0:c1])
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
        tile_row[:, c0:c1] = l.astype(_PRECISIONS[grid[b, b]].dtype)
        for rows_q, wt in below:
            r = slice(max(c1, rows_q.start) - rows_q.start, rows_q.stop - rows_q.start)
            if r.start < r.stop:
                # panel_q[r, c0:c1] = panel_q[r, c0:c1] @ inv(l).T
                wt[c0:c1, r] = solve_triangular(tile_row[:, c0:c1], wt[c0:c1, r], lower=True)
        for (q, code), run in groupby(range(b + 1, len(grid)), lambda i: (owner[i], grid[i, b])):
            if _PRECISIONS[code] is not Precision.DOUBLE:
                run, (rows_q, panel_q) = list(run), work[q]
                block = panel_q[run[0] * nb - rows_q.start:(run[-1] + 1) * nb - rows_q.start]
                block[:, c0:c1] = block[:, c0:c1].astype(_PRECISIONS[code].dtype)
        if c1 == rows.stop:  # the panel is final
            factor.append((rows, _split(grid, bounds[p], n, nb, panel)))
            work[p] = None
    return factor


def _accounting(
    codes: np.ndarray, n: int, tile_size: int, side: ConversionSide
) -> tuple[dict[str, float], int, int]:
    """``(flops_by_precision, conversions, n_tasks)``: the totals of the
    paper's task list (``generate_cholesky_tasks`` in
    ``benchmarks/paper_model/tasks.py``), in closed form from the precision
    codes; ``tests/paper_model/test_tasks.py`` pins the two equal.

    Tile ``(i, i)`` takes POTRF(i) and ``i`` SYRKs, tile ``(i, j)`` TRSM(i, j)
    and ``j`` GEMMs.  POTRF(k) broadcasts to column ``k`` below the diagonal;
    TRSM(i, k) to row ``i`` right of ``k`` and to column ``i`` below the
    diagonal.
    """
    nb, grid = tile_size, _code_grid(codes)
    nt = len(grid)
    onehot = grid == np.arange(len(_PRECISIONS))[:, None, None]  # [c, i, j]
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
        other = np.arange(len(_PRECISIONS))[:, None] != source
        per_target = counts if side is ConversionSide.RECEIVER else counts > 0
        return int((per_target * other).sum())

    conversions = converted(below, np.diag(grid)) + converted(
        right[:, i, j] + below[:, i], grid[i, j]
    )
    flops_by_precision = {p.value: float(f) for p, f in zip(_PRECISIONS, by_precision) if f}
    return flops_by_precision, conversions, sum(cholesky_tile_counts(nt).values())


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class CholeskyResult:
    """Outcome of a mixed-precision factorisation: the factor *is* its panels.

    ``tile_precision`` gives every lower tile's index into
    :data:`_PRECISIONS`, row-major (``(0, 0), (1, 0), (1, 1), ...``).
    ``panels`` holds the factor's values as ``[(rows, [(cols, panel), ...]),
    ...]``: per group of tile rows (:func:`_panel_bounds`) and precision in
    use, one C-ordered array from the first to the last tile column of that
    precision, zero where a tile has another precision and above the
    diagonal, its rows zero-padded to a multiple of 8; half-precision tiles
    are held as float32.
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
        width = np.array([p.bytes_per_element for p in _PRECISIONS])
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

        Beside ``tile_precision``, each tile's index into :data:`_PRECISIONS`,
        the factor is stored per row panel.  A panel of double-precision tiles
        only is its own member ``panel_<p>_fp64``, a read-only view, not a
        copy.  A mixed panel stores per precision in use the tiles it holds
        at that precision, row-major and each flattened, at their stored
        width (``panel_<p>_<fp64|fp32|fp16>``), so a mixed-precision factor
        takes its :attr:`storage_bytes` on disk.  The round trip is bit-exact.
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
        n, nb, grid = self.n, self.tile_size, _code_grid(self.tile_precision)
        heights = _tile_rows(n, nb)
        for p, ((first, last, rows), (_, parts)) in enumerate(zip(_panel_bounds(n, nb), self.panels)):
            if _all_double(grid, first, last):
                stored = parts[0][1].view()
                stored.flags.writeable = False
                state[f"panel_{p}_fp64"] = stored
                continue
            for (code, _), (cols, part) in zip(_part_columns(grid, first, last, n, nb), parts):
                tiles = [
                    part[i * nb - rows.start:, j * nb - cols.start:][:heights[i], :heights[j]].ravel()
                    for i, j in _tiles_of(grid, first, last, code)
                ]
                state[f"panel_{p}_{_PRECISIONS[code].value}"] = np.concatenate(
                    tiles, dtype=_PRECISIONS[code].dtype
                )
        return state

    @classmethod
    def from_state(cls, state: dict) -> "CholeskyResult":
        """Rebuild a factorisation result from :meth:`state_dict` output.

        A double-precision panel member is adopted as that panel; a mixed
        panel's tiles, like schema 2's ``tiles_<precision>`` buffers and
        schema 1's ``tiles`` dict, are copied tile by tile into new panels.
        A member or code array that disagrees with ``n`` / ``tile_size``
        raises ``ValueError`` naming it.
        """
        n, nb = int(state["n"]), int(state["tile_size"])
        if "tiles" in state:
            codes, tile = _member_tiles(state["tiles"], n, nb)
        else:
            codes, sizes = np.asarray(state["tile_precision"]), _tile_sizes(n, nb)
            n_codes = len(_PRECISIONS)
            if codes.shape != sizes.shape or codes.dtype != np.uint8 or np.any(codes >= n_codes):
                raise ValueError(
                    f"'tile_precision' must hold {sizes.size} uint8 codes below {n_codes} for "
                    f"n={n}, tile_size={nb}; got {codes.dtype} of shape {codes.shape}"
                )
            codes = codes.copy()
            old = any(str(key).startswith("tiles_") for key in state)
            tile = _packed_tiles(state, n, nb, codes) if old else None
        if tile is None:
            panels = _stored_panels(state, n, nb, codes)
        else:
            grid = _code_grid(codes)
            panels = [(b[2], _parts(grid, b, n, nb, tile)) for b in _panel_bounds(n, nb)]
        return cls(
            n=n,
            tile_size=nb,
            tile_precision=codes,
            panels=panels,
            variant=str(state["variant"]),
            flops_by_precision={str(k): float(v) for k, v in state["flops_by_precision"].items()},
            total_flops=float(state["total_flops"]),
            conversions=int(state["conversions"]),
            n_tasks=int(state["n_tasks"]),
        )


def _stored_panels(state: dict, n: int, tile_size: int, codes: np.ndarray) -> list:
    """Schema-3 layout: adopt a double-precision panel's ``panel_<p>_fp64``
    member, and fill a mixed panel from its per-precision tiles."""
    grid, layout, panels, expected = _code_grid(codes), f"n={n}, tile_size={tile_size}", [], set()
    for p, (first, last, rows) in enumerate(_panel_bounds(n, tile_size)):
        if _all_double(grid, first, last):
            member, shape = f"panel_{p}_fp64", (_height(rows), rows.stop)
            panel = np.asarray(state.get(member, np.empty(0)))
            if panel.dtype != np.float64 or panel.shape != shape:
                raise ValueError(
                    f"{member!r} must be a float64 array of shape {shape} for "
                    f"{layout}; got {panel.dtype} of shape {panel.shape}"
                )
            panels.append((rows, [(slice(0, rows.stop), np.ascontiguousarray(panel))]))
            expected.add(member)
            continue
        tiles = slice(first * (first + 1) // 2, last * (last + 1) // 2)
        tile = _packed_tiles(state, n, tile_size, codes, f"panel_{p}_{{}}", tiles)
        panels.append((rows, _parts(grid, (first, last, rows), n, tile_size, tile)))
        expected.update(f"panel_{p}_{precision.value}" for precision in _PRECISIONS)
    stray = sorted(str(k) for k in state if str(k).startswith("panel_") and k not in expected)
    if stray:
        raise ValueError(f"{stray[0]!r} is not a panel 'tile_precision' describes for {layout}")
    return panels


def _member_tiles(members: dict, n: int, tile_size: int) -> tuple[np.ndarray, _TileAccessor]:
    """Schema-1 layout: one ``"<i>_<j>"`` array per tile, dtype = precision."""
    code_of = {p.dtype: code for code, p in enumerate(_PRECISIONS)}
    codes = []
    for i, j in zip(*np.tril_indices(len(_tile_rows(n, tile_size)))):
        dtype = np.asarray(members[f"{i}_{j}"]).dtype
        if dtype not in code_of:
            raise ValueError(f"tile ({i}, {j}) has unsupported dtype {dtype}")
        codes.append(code_of[dtype])
    return np.array(codes, dtype=np.uint8), lambda i, j: np.asarray(members[f"{i}_{j}"])


def _packed_tiles(
    state: dict, n: int, tile_size: int, codes: np.ndarray,
    name: str = "tiles_{}", tiles: slice = slice(None),
) -> _TileAccessor:
    """Validate the buffers that pack the ``tiles`` (row-major lower-tile
    indices) per precision, each the member ``name`` formatted with its
    precision, and slice tiles from them: schema 2 packs the whole factor,
    schema 3 each mixed panel."""
    heights = _tile_rows(n, tile_size).tolist()
    sizes = _tile_sizes(n, tile_size)
    buffers, starts = [], np.zeros_like(sizes)
    for code, precision in enumerate(_PRECISIONS):
        member, mine = name.format(precision.value), np.zeros(len(codes), bool)
        mine[tiles] = codes[tiles] == code
        buffer = np.asarray(state.get(member, np.empty(0, precision.dtype)))
        needed = int(sizes[mine].sum())
        if buffer.dtype != precision.dtype or buffer.shape != (needed,):
            raise ValueError(
                f"{member!r} must be a flat {precision.dtype} buffer of {needed} "
                f"values ({int(mine.sum())} tiles of n={n}, tile_size={tile_size}); got "
                f"{buffer.dtype} of shape {buffer.shape}"
            )
        starts[mine] = np.cumsum(sizes[mine]) - sizes[mine]
        buffers.append(buffer)

    def tile(i: int, j: int) -> np.ndarray:
        t = i * (i + 1) // 2 + j
        return buffers[codes[t]][starts[t]:starts[t] + sizes[t]].reshape(heights[i], heights[j])

    return tile


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
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        work = _working_panels(len(matrix), self.tile_size)
        for rows, panel in work:
            panel[:rows.stop - rows.start] = np.tril(matrix[rows, :rows.stop], rows.start)
        return self.factorize_panels(work)

    def covariance_panels(self, samples: np.ndarray, ridge: float = 0.0) -> list:
        """Row panels of ``U = samples.T @ samples / len(samples)`` plus ``ridge
        * mean(diag U)`` on its diagonal, for :meth:`factorize_panels`.

        Per panel one ``dsyrk`` and one ``dgemm``: with tile sizes a multiple
        of 16, the lower triangle of one ``dsyrk`` bit for bit (OpenBLAS 0.3.31).
        """
        samples = np.asarray(samples, dtype=np.float64)
        alpha, a = 1.0 / max(len(samples), 1), samples.T
        work = _working_panels(samples.shape[1], self.tile_size)
        for rows, panel in work:
            # A Fortran-ordered upper triangle is the C-ordered lower one.
            panel[:rows.stop - rows.start, rows] = dsyrk(alpha, a[rows], lower=0).T
            if rows.start:
                panel[:rows.stop - rows.start, :rows.start] = dgemm(
                    alpha, a[:rows.start], a[rows], trans_b=1
                ).T
        mean = float(np.mean(np.concatenate([np.diagonal(p, r.start) for r, p in work])) or 1.0)
        for rows, panel in work:
            panel[:, rows][np.diag_indices(rows.stop - rows.start)] += ridge * mean
        return work

    def factorize_panels(self, work: list) -> CholeskyResult:
        """Factorise the matrix whose lower triangle the float64 row panels
        ``work`` hold (:meth:`covariance_panels`) in place; each panel leaves
        ``work`` as it finishes, split by precision unless all double."""
        n, nb = work[-1][0].stop, self.tile_size
        codes = np.array(
            [_PRECISIONS.index(p) for p in self.policy.precision_map(-(-n // nb)).values()],
            dtype=np.uint8,
        )
        flops_by_precision, conversions, n_tasks = _accounting(codes, n, nb, self.conversion)
        return CholeskyResult(
            n=n,
            tile_size=nb,
            tile_precision=codes,
            panels=_factor_panels(work, nb, codes, self.jitter),
            variant=self.policy.name,
            flops_by_precision=flops_by_precision,
            total_flops=sum(flops_by_precision.values()),
            conversions=conversions,
            n_tasks=n_tasks,
        )
