"""Fast spherical harmonic transform (Eqs. 4-8 of the paper), real fields.

Every field the emulator analyses or synthesises is real, so the plan
works on the orders ``0 <= m < L`` only — ``f_{l,-m} = (-1)**m
conj(f_{l,m})`` supplies the rest — and in real arithmetic throughout.
The forward (analysis) transform of ``Z(theta_i, phi_j)`` on an
equiangular grid proceeds in two stages:

1. a real Fourier transform along longitude produces
   ``G_m(theta_i) = integral Z(theta_i, phi) exp(-i m phi) dphi`` — a
   real FFT, or one GEMM per slice against a ``nphi x 2L`` real Fourier
   operator where a fixed rule of ``(L, nphi)`` says that is cheaper
   (:func:`_longitude_by_gemm`: a prime ``nphi``, e.g. the default
   grid's 127 at ``L = 64``, has no fast FFT radix),
2. one real GEMM per order assembles ``f_{l,m} = sum_i G_m(theta_i)
   A_m[i, l]``.

``A_m`` is the paper's Eqs. (6)-(8) multiplied out at plan build.  Eq.
(6) extends ``G_m`` to ``(pi, 2*pi)`` through ``G_m(2*pi - theta) =
(-1)**m G_m(theta)``, so the Fourier coefficients ``K_{m,m'}`` of the
extension are a type-I cosine transform of the ``ntheta`` samples for
even ``m`` and ``-i`` times a type-I sine transform for odd ``m`` — one
fixed real matrix per order parity.  Eq. (7) assembles ``f_{l,m}`` from
``K_{m,m'}`` through the closed-form integrals ``I(m' + m'')`` of Eq. (8)
contracted with ``S_{l,m,m''} = i^{-m} sqrt((2l+1)/(4*pi))
Delta^l_{m'',0} Delta^l_{m'',m}`` and folded onto ``m' >= 0``; the fold
cancels the imaginary part of ``I`` exactly, and ``i^{-m}`` (times the
sine transform's ``-i``) is a sign.  ``A_m`` is the product of the two.

The inverse (synthesis) transform runs the same factorisation backwards:
one real GEMM per order to ``H_m(theta_i) = sum_l f_{l,m} S_m[l, i]``,
an inverse real FFT (or the GEMM against the ``2L x nphi`` operator) to
the field.  ``S_m`` is Eq. (7)'s table contracted
with the colatitude Fourier series (a cosine / sine series, by the same
symmetry): its rows are the sampled harmonics ``Y_{l,m}(theta_i, 0)`` —
built from the Wigner-d tables, with the Legendre recursion kept as the
tests' independent oracle — and ``A_m`` is their exact-quadrature dual.
Folded, the operators are the size they were (``ntheta = L + 1`` columns
on the minimal grid instead of ``L``), so the colatitude transform is
free at run time.

Complex data is two real transforms (:meth:`SHTPlan.forward` /
:meth:`SHTPlan.inverse`); there is no complex code path.  Both directions
cost ``O(L^3)`` per time slice — the per-order GEMMs ``O(L^3)``, the
longitude stage ``O(L^2 log L)`` as an FFT and ``O(L^2 nphi)`` as a GEMM,
taken only where its constant makes it cheaper — and are embarrassingly
parallel over time slices (paper Section III-A.2); every stage vectorises
over the leading axes and is independent per leading slice.

All data-independent quantities live in :class:`SHTPlan` and are computed
once, which is the pre-computation strategy the paper describes.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

from repro.linalg.flops import sht_contraction_flops
from repro.obs import span
from repro.obs.tracing import _child_spans
from repro.sht.grid import Grid, extended_colatitude_length
from repro.sht.quadrature import _exponential_sine_integral
from repro.sht.wigner import wigner_d_pi2_quadrants

__all__ = [
    "bandlimit_from_coeff_count",
    "coeff_index",
    "SHTPlan",
]

#: Leading slices synthesised per FFT pass in :meth:`SHTPlan.inverse`.  The
#: reorder and the longitude transform are memory-bound; keeping the
#: per-pass working set at ``~block * L * ntheta * 40`` bytes (a few MB)
#: preserves cache locality on large stacked batches.  Blocking never
#: changes results: the transforms are independent per leading slice.
_SYNTHESIS_BLOCK = 32

#: Leading slices analysed per FFT pass in :meth:`SHTPlan.forward` — the
#: analysis counterpart of :data:`_SYNTHESIS_BLOCK`, bounding the peak
#: working set on stacked ``(R, T, ntheta, nphi)`` ensembles (the `fit`
#: hot path) instead of holding the intermediates of the whole record at
#: once.  Blocking never changes results: every stage is independent per
#: leading slice.
_ANALYSIS_BLOCK = 32

#: On the FFT side a batch of at least this many leading slices runs as two halves
#: at once (:meth:`SHTPlan._in_parts`); below it the gain was unreliable (L = 128, 2 CPUs).
_SPLIT_MIN_SLICES = 16

_WORKERS: "dict[int, tuple[threading.Lock, queue.SimpleQueue]]" = {}  # (idle, jobs) by pid


def _work(jobs: queue.SimpleQueue) -> None:
    """The process's one worker thread: runs each half handed to it."""
    while True:
        future, parent, run = jobs.get()
        try:
            with _child_spans(parent):
                future.set_result(run())
        except BaseException as error:  # the caller's future.result() raises it
            future.set_exception(error)
        del future, parent, run  # hold no batch while idle


# --------------------------------------------------------------------------- #
# Coefficient indexing
# --------------------------------------------------------------------------- #
def _num_coeffs(lmax: int) -> int:
    """Number of spherical-harmonic coefficients below band-limit ``lmax``.

    Degrees ``0 .. lmax - 1`` with orders ``-l .. l`` give ``lmax**2``
    coefficients, which is the length of the spectral vector ``f_t`` in the
    paper (the ``L^2 x T`` matrix ``F``).
    """
    if lmax < 1:
        raise ValueError("lmax must be >= 1")
    return lmax * lmax


def bandlimit_from_coeff_count(n: int) -> int:
    """The band-limit ``L`` whose coefficient vector has length ``n``.

    The exact inverse of :func:`_num_coeffs`: ``n`` must be a perfect
    square ``L**2`` (a full ``(l, m)`` set), anything else raises
    ``ValueError``.  Recovery uses :func:`math.isqrt`, never a rounded
    float square root — ``round(sqrt(n))`` silently truncates or
    misreads malformed vectors near large perfect squares.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"coefficient count must be >= 1, got {n}")
    lmax = math.isqrt(n)
    if lmax * lmax != n:
        raise ValueError(
            f"coefficient count {n} is not a perfect square L**2; "
            f"got a trailing axis that cannot hold a full (l, m) set"
        )
    return lmax


def coeff_index(ell: int, m: int) -> int:
    """Flat index of coefficient ``(l, m)``: ``l*l + l + m``."""
    if abs(m) > ell:
        raise ValueError(f"invalid order m={m} for degree l={ell}")
    return ell * ell + ell + m


def degrees_and_orders(lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of degree and order for every flat coefficient index.

    Built by integer arithmetic alone (degree ``l`` repeats ``2l + 1``
    times), so the result is exact at every index — no float square root
    is involved.
    """
    ells = np.repeat(np.arange(lmax), 2 * np.arange(lmax) + 1)
    idx = np.arange(_num_coeffs(lmax))
    ms = idx - ells * ells - ells
    return ells, ms


# --------------------------------------------------------------------------- #
# Transform plan
# --------------------------------------------------------------------------- #
#: Operator column counts are rounded up to a multiple of this.  BLAS
#: computes a GEMM in register tiles and finishes a ragged edge with other
#: kernels, whose rounding can differ from the full tiles'; which rows of
#: a stack meet an edge kernel depends on the stack's height.  With the
#: column count a multiple of the widest SIMD vector (8 doubles) there is
#: no ragged edge along the columns, and a row's product no longer depends
#: on how many rows were stacked with it — the per-slice bit-identity
#: contract of :meth:`SHTPlan.forward` / :meth:`SHTPlan.inverse` (probed on
#: OpenBLAS 0.3.31 / AVX-512, where ``dgemm`` breaks it at other widths;
#: pinned by the slice-vs-batch property tests).
_GEMM_COLUMN_MULTIPLE = 8


def _round_up(n, multiple: int = _GEMM_COLUMN_MULTIPLE):
    return -(-n // multiple) * multiple


#: The longitude stage is a GEMM against a ``2L``-wide Fourier operator when
#: ``4 L < _FOURIER_GEMM_KAPPA * _fft_cost(nphi)`` (:func:`_longitude_by_gemm`).
#: 16 puts every grid measured (one OpenBLAS thread, 32-slice blocks) on its
#: faster side: ``nphi = 2L - 1`` = 63, 95, 127, 191 (L = 32 .. 96) on the
#: GEMM; 255 (L = 128), 128, 256 and ERA5's 1440 on the FFT.
_FOURIER_GEMM_KAPPA = 16


def _fft_cost(n: int) -> float:
    """Per-point FFT cost of length ``n`` after pocketfft's own guess: the
    sum of its prime factors, those above 5 weighted 1.1."""
    cost, p = 0.0, 2
    while n > 1:
        if p * p > n:
            p = n
        while n % p == 0:
            cost += p if p <= 5 else 1.1 * p
            n //= p
        p += 1
    return cost


def _longitude_by_gemm(lmax: int, nphi: int) -> bool:
    """Whether the plan runs its longitude stage as a GEMM, not an FFT.

    A fixed rule of the plan's shape, never a timing, so a field's bits
    depend on *(artifact, seed, request)* alone on every host.  The GEMM
    costs ``4L`` flops a point, the FFT a multiple of ``_fft_cost(nphi)``;
    ``nphi = 1`` costs nothing and stays on the FFT.
    """
    return 4 * lmax < _FOURIER_GEMM_KAPPA * _fft_cost(nphi)


@dataclass
class SHTPlan:
    """Precomputed real operators for the fast transform at a fixed band-limit.

    Parameters
    ----------
    lmax:
        Band-limit ``L``; coefficients cover degrees ``0 .. L-1``.
    grid:
        Equiangular grid the transform operates on.  It must satisfy
        ``ntheta >= L + 1`` and ``nphi >= 2L - 1``.

    Notes
    -----
    The plan stores, for every order ``0 <= m < L``, one ``float64``
    synthesis operator (``L - m`` degrees by ``ntheta`` colatitudes) and
    one ``float64`` analysis operator of the transposed shape — about
    ``L^2 ntheta`` values together, both dimensions zero-padded to a
    multiple of :data:`_GEMM_COLUMN_MULTIPLE` — plus
    the ``O(L^2)`` index maps between the flat ``(l, m)`` coefficient
    vector and the order-major ``m >= 0`` packing the GEMMs read.  On
    the GEMM side of :func:`_longitude_by_gemm` it also holds the
    longitude stage's real Fourier pair, ``2L x nphi`` for synthesis and
    ``nphi x 2L`` for analysis (``2 * 2L * nphi * 8`` bytes, 0.26 MB at
    ``L = 64``); on the FFT side nothing.  The operators are built from
    the ``m', m >= 0`` quadrants of the Wigner-d tables
    (:func:`~repro.sht.wigner.wigner_d_pi2_quadrants`, about
    ``L^3 / 3`` values), released when ``__post_init__`` returns; a
    build takes ~50 ms at ``L = 128`` and ~0.5 s at ``L = 256`` on a
    2-core VM.  Everything is built eagerly, so shared cached plans stay
    immutable.  On the FFT side a batch of 16 or more slices runs as two
    halves at once, one on the process's worker if idle, with the unsplit bits.
    """

    lmax: int
    grid: Grid
    _pack: np.ndarray = field(init=False, repr=False)
    _unpack: np.ndarray = field(init=False, repr=False)
    _sign: np.ndarray = field(init=False, repr=False)
    _offsets: np.ndarray = field(init=False, repr=False)
    _syn_ops: list[np.ndarray] = field(init=False, repr=False)
    _ana_ops: list[np.ndarray] = field(init=False, repr=False)
    _lon_syn: np.ndarray | None = field(init=False, repr=False)
    _lon_ana: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lmax = self.lmax
        if lmax < 1:
            raise ValueError("lmax must be >= 1")
        if not self.grid.supports_bandlimit(lmax):
            raise ValueError(
                f"grid {self.grid.shape} cannot support band-limit {lmax}: "
                f"requires ntheta >= {lmax + 1} and nphi >= {2 * lmax - 1}"
            )
        # Order-major packing of the m >= 0 half: order m owns the slots
        # offsets[m]:offsets[m+1] — its degrees l = m .. L-1 ascending, then
        # padding up to the GEMM column multiple.  Padding slots read
        # coefficient 0 and meet zero operator rows; nothing reads them back.
        blocks = _round_up(lmax - np.arange(lmax))
        self._offsets = np.concatenate(([0], np.cumsum(blocks)))
        orders = np.repeat(np.arange(lmax), blocks)
        degrees = np.arange(orders.size) - self._offsets[orders] + orders
        used = degrees < lmax
        positive = np.where(used, degrees * degrees + degrees + orders, 0)
        negative = np.where(used, positive - 2 * orders, 0)
        # `_pack` gathers the (l, m) then the (l, -m) of every slot from the
        # flat vector; `_unpack` is the inverse map from [slots | mirrored
        # slots] (written last for m >= 0, so m = 0 reads the first half).
        self._pack = np.concatenate((positive, negative))
        slots = np.flatnonzero(used)
        self._unpack = np.empty(lmax * lmax, dtype=np.intp)
        self._unpack[negative[slots]] = orders.size + slots
        self._unpack[positive[slots]] = slots
        self._sign = np.where(orders % 2 == 0, 1.0, -1.0)
        # Built eagerly: plans are shared process-wide through the plan
        # cache and must be immutable after construction (a lazy build
        # would race under concurrent forward()/inverse() calls from
        # serving request threads).
        self._syn_ops, self._ana_ops = self._build_operators()
        self._lon_syn = self._lon_ana = None
        nphi = self.grid.nphi
        if _longitude_by_gemm(lmax, nphi):
            # Row / column (m, part) holds (cos, -sin)(m phi_j): times 1, 2, 2,
            # ... for synthesis, the irfft's sum over +-m; over nphi for
            # analysis, so `data @ _lon_ana` viewed as complex is the rfft.
            angle = np.outer(np.arange(lmax), np.arange(nphi)) % nphi * (2.0 * np.pi / nphi)
            wave = np.stack((np.cos(angle), -np.sin(angle)), axis=1)  # [m, part, j]
            self._lon_syn = (np.where(np.arange(lmax) == 0, 1.0, 2.0)[:, None, None]
                             * wave).reshape(2 * lmax, nphi)
            self._lon_ana = np.ascontiguousarray(wave.reshape(2 * lmax, nphi).T / nphi)

    def _build_operators(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The per-order real GEMM operators of both directions.

        ``table[m, l, m'] = sqrt((2l+1)/(4*pi)) Delta^l_{m',0}
        Delta^l_{m',m}`` for ``m, m' >= 0`` is Eq. (7)'s ``S`` without its
        phase; ``S_{l,m,-m'} = (-1)**m S_{l,m,m'}`` covers the rest.

        *Synthesis*, order ``m``: ``C_{m,m'} = i^{-m} sum_l f_{l,m}
        table[m, l, m']``, and ``H_m(theta) = sum_{m'} C_{m,m'} exp(i m'
        theta)`` is the cosine series ``C_{m,0} + 2 sum_{m'>0} C_{m,m'}
        cos(m' theta)`` for even ``m`` and ``i`` times the sine series
        ``2 sum_{m'>0} C_{m,m'} sin(m' theta)`` for odd ``m`` — what a
        type-I DCT / DST evaluates on the grid's colatitudes.  Applied to
        the rows of ``table[m, m:]`` it leaves ``Y_{l,m}(theta_i, 0)`` in
        row ``l``; with the sine series' ``i`` the phase is the sign
        ``(-1)**(m // 2)``.  A sine series vanishes at both poles: those
        columns of an odd order are exact zeros.

        *Analysis*, order ``m``: ``I @ S_m.T`` (the integrals of Eq. 8
        contracted in) folded onto ``m' >= 0`` through ``K_{m,-m'} =
        (-1)**m K_{m,m'}`` and onto ``m'' >= 0`` through the symmetry of ``S``
        is ``i^{-m} w_{m'} sum_{m''>=0} J[m', m''] table[m, l, m'']`` with
        ``J[m', m''] = Re I(m'+m'') + (-1)**m Re I(m'-m'')`` (halved at
        ``m'' = 0``) and ``w = 1, 2, 2, ...``; the imaginary part of ``I``
        (``q = +-1`` only) cancels in the fold.  ``N K_{m,m'}`` (``N`` the
        extended length) is the type-I cosine transform ``T`` of ``G_m``
        over the grid's colatitudes for even ``m`` and ``-i`` times the
        sine transform for odd ``m``.  ``T``, ``w J`` and the ``2 pi / N``
        (the data is ``G_m / 2 pi``) do not depend on the order, so their
        product is formed once per parity and an order costs one GEMM
        with ``table[m, m:].T``.  For odd ``m`` the ``-i`` turns
        ``i^{-m}`` into the sign ``(-1)**((m+1) // 2)`` and the pole rows
        are exact zeros.
        """
        lmax, ntheta = self.lmax, self.grid.ntheta
        width = _round_up(ntheta)
        blocks = np.diff(self._offsets)  # slots per order, padding included
        # table[m, m:] is packed[starts[m]:starts[m + 1]]: only the degrees
        # l >= m of each order are stored, half the (L, L, L) table.
        starts = np.concatenate(([0], np.cumsum(lmax - np.arange(lmax))))
        packed = np.zeros((starts[-1], lmax))
        for ell, quadrant in enumerate(wigner_d_pi2_quadrants(lmax)):  # [m', m]
            norm = np.sqrt((2.0 * ell + 1.0) / (4.0 * np.pi))
            orders = np.arange(ell + 1)
            packed[starts[orders] + ell - orders, :ell + 1] = (norm * quadrant[:, :1] * quadrant).T
        index = np.arange(lmax)
        plus = _exponential_sine_integral(index[:, None] + index[None, :]).real
        minus = _exponential_sine_integral(index[:, None] - index[None, :]).real
        weight = np.where(index == 0, 1.0, 2.0)[:, None] * (
            2.0 * np.pi / extended_colatitude_length(ntheta)
        )
        # [i, m']: the weight of G_m(theta_i) in output m' of the transform.
        cosine = _fft.dct(np.eye(ntheta), type=1, axis=0)[:lmax].T
        sine = np.zeros((ntheta, lmax))
        if lmax > 1:  # L = 1 has no odd order (and ntheta = 2 no interior row)
            sine[1:-1, 1:] = _fft.dst(np.eye(ntheta - 2), type=1, axis=0)[:lmax - 1].T
        fold = []
        for parity_sign, transform in ((1.0, cosine), (-1.0, sine)):
            j = plus + parity_sign * minus
            j[:, 0] *= 0.5
            fold.append(transform @ (weight * j))
        del plus, minus, j, cosine, sine  # the build's peak is `packed` plus the operators
        syn_ops, ana_ops = [], []
        for m in range(lmax):
            rows = packed[starts[m]:starts[m + 1]]
            syn = np.zeros((blocks[m], width))
            ana = np.zeros((width, blocks[m]))
            if m % 2:
                syn[:lmax - m, 1:ntheta - 1] = _fft.dst(rows[:, 1:], type=1, n=ntheta - 2, axis=-1)
            else:
                syn[:lmax - m, :ntheta] = _fft.dct(rows, type=1, n=ntheta, axis=-1)
            ana[:ntheta, :lmax - m] = fold[m % 2] @ rows.T
            syn_ops.append(-syn if (m // 2) % 2 else syn)
            ana_ops.append(-ana if ((m + 1) // 2) % 2 else ana)
        return syn_ops, ana_ops

    # -- derived sizes ----------------------------------------------------- #
    @property
    def n_coeffs(self) -> int:
        """Length of the coefficient vector, ``L**2``."""
        return _num_coeffs(self.lmax)

    @property
    def _longitude_method(self) -> str:
        """``"gemm"`` or ``"fft"``: how the longitude stage runs (span attribute)."""
        return "fft" if self._lon_syn is None else "gemm"

    # ------------------------------------------------------------------ #
    # Forward (analysis)
    # ------------------------------------------------------------------ #
    def longitude_fourier(self, data: np.ndarray) -> np.ndarray:
        """Stage 1: ``G_m(theta_i) / 2 pi`` for the orders ``0 <= m < L``.

        Parameters
        ----------
        data:
            Real field(s) of shape ``(..., ntheta, nphi)``.

        Returns
        -------
        numpy.ndarray
            ``complex128`` of shape ``(..., ntheta, L)``: the real Fourier
            transform along longitude, normalised by ``1 / nphi`` (the
            ``2 pi`` of the longitude integral is folded into the analysis
            operators).  Where :func:`_longitude_by_gemm` says it is
            cheaper it is one GEMM per slice against the plan's ``nphi x
            2L`` operator, viewed as complex without a copy; elsewhere a
            real FFT.
        """
        if self._lon_ana is None:
            data = np.asarray(data, dtype=np.float64)
            return _fft.rfft(data, axis=-1, norm="forward")[..., :self.lmax]
        data = np.ascontiguousarray(data, dtype=np.float64)
        return np.matmul(data, self._lon_ana).view(np.complex128)

    def colatitude_fourier(self, g: np.ndarray) -> np.ndarray:
        """Reorder :meth:`longitude_fourier` output to the planes the GEMMs read.

        No arithmetic, despite the name (kept for the callers that chain
        the stages): the cosine / sine transform over colatitude lives in
        the analysis operators (:meth:`_build_operators`).  ``g`` is
        ``(..., ntheta, L)``; the result is ``float64`` ``(L, 2, ..., W)``
        indexed ``[m, part, ..., i]`` — the real (``part = 0``) and
        imaginary planes of the colatitude *samples* ``G_m(theta_i) / 2
        pi``, the values of ``g`` bit for bit.  ``W`` is ``ntheta`` rounded
        up to the GEMM column multiple; columns ``i >= ntheta`` are zero.
        """
        lmax, ntheta = self.lmax, self.grid.ntheta
        lead = g.shape[:-2]
        flat = g.reshape((-1, ntheta, lmax))
        k = np.empty((lmax, 2, flat.shape[0], _round_up(ntheta)))
        k[..., ntheta:] = 0.0
        # One slice at a time, so its (ntheta, L) rows stay in cache while
        # the 2 L planes are gathered from them: over a whole block, rows of
        # a power-of-two size (L = 64, 128, ...) put every colatitude of an
        # order in the same few cache sets and each read misses.
        for b, rows in enumerate(flat):
            k[:, 0, b, :ntheta] = rows.real.T
            k[:, 1, b, :ntheta] = rows.imag.T
        return k.reshape((lmax, 2) + lead + k.shape[-1:])

    def wigner_contraction_forward(self, k: np.ndarray) -> np.ndarray:
        """Stage 2: contract :meth:`colatitude_fourier` output into coefficients.

        One real GEMM per order ``m >= 0`` against the analysis operators
        of :meth:`_build_operators` — Eq. (6)'s colatitude transform and
        Eq. (7)'s contraction in one product — the real and imaginary
        planes of all leading slices stacked into the GEMM row dimension
        (never fewer than two rows, so BLAS never switches to its gemv
        kernels; see :data:`_GEMM_COLUMN_MULTIPLE` for why per-slice
        results do not depend on the batch height).  Returns
        ``complex128`` ``(..., L**2)`` with the negative orders filled by
        ``f_{l,-m} = (-1)**m conj(f_{l,m})``.
        """
        packed = self._analysis_gemms(k)
        n_rows, n_half = packed.shape[0] // 2, self._sign.size
        both = np.empty((n_rows, 2 * n_half), dtype=np.complex128)
        both.real[:, :n_half] = packed[:n_rows]
        both.imag[:, :n_half] = packed[n_rows:]
        np.multiply(packed[:n_rows], self._sign, out=both.real[:, n_half:])
        np.multiply(packed[n_rows:], -self._sign, out=both.imag[:, n_half:])
        del packed  # a lower peak, which a split half's worker holds in its own arena
        return np.take(both, self._unpack, axis=1).reshape(k.shape[2:-1] + (self.n_coeffs,))

    def _contraction_to_realform(self, k: np.ndarray) -> np.ndarray:
        """:meth:`wigner_contraction_forward` in the real packing, bit for bit:
        the ``[re | im]`` rows of the packed output, ``sqrt(2)`` times for
        ``m > 0``, gathered by ``_unpack`` (``(l, -m)`` reads ``(l, m)``'s ``im``)."""
        packed = self._analysis_gemms(k)
        packed[:, self._offsets[1]:] *= np.sqrt(2.0)
        rows = np.concatenate(np.split(packed, 2), axis=1)
        return np.take(rows, self._unpack, axis=1).reshape(k.shape[2:-1] + (self.n_coeffs,))

    def _analysis_gemms(self, k: np.ndarray) -> np.ndarray:
        """One analysis GEMM per order: the packed ``[re rows | im rows]``."""
        flat = k.reshape((self.lmax, -1, k.shape[-1]))
        packed = np.empty((flat.shape[1], self._sign.size))
        for m, op in enumerate(self._ana_ops):
            np.matmul(flat[m], op, out=packed[:, self._offsets[m]:self._offsets[m + 1]])
        return packed

    def _analyze_block(self, data: np.ndarray, contraction) -> np.ndarray:
        """One unblocked analysis pass: longitude stage plus GEMM ``contraction``."""
        with span("sht.forward.fft", method=self._longitude_method):
            k = self.colatitude_fourier(self.longitude_fourier(data))
        n_slices = int(np.prod(k.shape[2:-1]))
        with span(
            "sht.forward.contraction",
            flops=sht_contraction_flops(self.lmax, n_slices, self.grid.ntheta),
        ):
            return contraction(k)

    def forward(self, data: np.ndarray) -> np.ndarray:
        """Full analysis: grid field(s) to spectral coefficients.

        Parameters
        ----------
        data:
            Field(s) of shape ``(..., ntheta, nphi)``; any leading batch
            shape is transformed independently per leading slice.  Real
            input takes the real path directly; complex input is analysed
            as two real fields, ``forward(x + iy) = forward(x) + i
            forward(y)``.  Stacked batches — e.g. a whole training
            ensemble ``(R, T, ntheta, nphi)``, the `fit` hot path — are
            analysed in blocks of :data:`_ANALYSIS_BLOCK` leading slices,
            so peak memory is bounded by the block, not the record.

        Returns
        -------
        numpy.ndarray
            ``complex128`` coefficients of shape ``(..., L**2)`` in flat
            ``(l, m)`` order (``idx = l*l + l + m``).  Deterministic and
            batch-invariant: the same input always yields bit-identical
            coefficients, and ``plan.forward(stacked)[b]`` is
            bit-identical to ``plan.forward(stacked[b])`` — every stage
            (the longitude stage, the reorder, the per-order GEMMs) operates
            independently per leading slice.
        """
        data = np.asarray(data)
        if np.iscomplexobj(data):
            return self.forward(data.real) + 1j * self.forward(data.imag)
        return self._analyze(self.wigner_contraction_forward, data, np.complex128)

    def forward_realform(self, data: np.ndarray) -> np.ndarray:
        """``forward(data)`` in the real packing, bit for bit, for real ``data``.

        ``float64`` ``(..., L**2)`` in the packing the emulator's VAR carries,
        gathered straight from the per-order GEMM output (the mirror of
        :meth:`inverse_realform`); the rest is :meth:`forward`'s own code.
        """
        return self._analyze(self._contraction_to_realform, np.asarray(data), np.float64)

    def _analyze(self, contraction, data: np.ndarray, dtype) -> np.ndarray:
        """The analysis of real ``data`` in blocks of leading slices, under spans."""
        if data.shape[-2:] != self.grid.shape:
            raise ValueError(
                f"field shape {data.shape[-2:]} does not match grid {self.grid.shape}"
            )
        lead = data.shape[:-2]
        n_flat = int(np.prod(lead))
        flat = data.reshape((n_flat,) + self.grid.shape)
        with span("sht.forward", lmax=self.lmax, slices=n_flat, bytes=data.nbytes) as sp:
            coeffs = self._in_parts(sp, n_flat, (self.n_coeffs,), dtype, lambda a, b, out:
                                    self._analysis_pass(contraction, flat[a:b], dtype, out))
            return coeffs.reshape(lead + (self.n_coeffs,))

    def _analysis_pass(self, contraction, flat: np.ndarray, dtype, out) -> np.ndarray:
        """The analysis of ``(n, ntheta, nphi)`` ``flat`` in blocks, into ``out`` if given."""
        if len(flat) <= _ANALYSIS_BLOCK and out is None:
            return self._analyze_block(flat, contraction)
        out = np.empty((len(flat), self.n_coeffs), dtype=dtype) if out is None else out
        for start in range(0, len(flat), _ANALYSIS_BLOCK):
            block = flat[start:start + _ANALYSIS_BLOCK]
            out[start:start + _ANALYSIS_BLOCK] = self._analyze_block(block, contraction)
        return out

    # ------------------------------------------------------------------ #
    # Inverse (synthesis)
    # ------------------------------------------------------------------ #
    def wigner_contraction_inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Map coefficients to the colatitude samples ``H_m(theta_i)``.

        ``H_m(theta_i) = sum_l g_{l,m} Y_{l,m}(theta_i, 0)``

        for the orders ``m >= 0`` of the *real part* of the field:
        ``g_{l,m} = (f_{l,m} + (-1)**m conj(f_{l,-m})) / 2``, which is
        ``f_{l,m}`` itself, bit for bit, when ``coeffs`` already carries
        the conjugate symmetry of a real field.  One real GEMM per order
        against the synthesis operators of :meth:`_build_operators` —
        Eq. (7)'s contraction and the colatitude Fourier series in one
        product — with the rows stacked as in
        :meth:`wigner_contraction_forward`.

        Returns ``float64`` of shape ``(L, 2, ..., W)`` indexed ``[m,
        part, ..., i]``: the real and imaginary planes of ``H_m`` at the
        grid's colatitudes — samples, not the Fourier coefficients
        ``C_{m,m'}`` the next stage's name suggests.  ``W`` is ``ntheta``
        rounded up to the GEMM column multiple; columns ``i >= ntheta``,
        and the poles of an odd order, are zero.
        """
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        lead = coeffs.shape[:-1]
        flat = coeffs.reshape(-1, coeffs.shape[-1])
        n_rows = flat.shape[0]
        n_half = self._sign.size
        both = np.take(flat, self._pack, axis=1).view(np.float64)
        both = both.reshape(n_rows, 2 * n_half, 2)
        packed = np.empty((2 * n_rows, n_half))
        np.multiply(both[:, n_half:, 0], self._sign, out=packed[:n_rows])
        np.multiply(both[:, n_half:, 1], -self._sign, out=packed[n_rows:])
        packed[:n_rows] += both[:, :n_half, 0]
        packed[n_rows:] += both[:, :n_half, 1]
        packed *= 0.5
        del both  # a lower peak, which a split half's worker holds in its own arena
        return self._order_gemms(packed, lead)

    def _contraction_from_realform(self, series: np.ndarray) -> np.ndarray:
        """:meth:`wigner_contraction_inverse` of ``complex_from_real(series)``, bit
        for bit: the real form holds ``sqrt(2) Re f_{l,m}`` and ``sqrt(2) Im
        f_{l,m}`` at the flat indices of ``(l, m)`` and ``(l, -m)`` — the halves
        of ``_pack`` — so the packed rows are one gather and the same division."""
        flat = series.reshape(-1, series.shape[-1])
        n_rows = flat.shape[0]
        n_half = self._sign.size
        packed = np.empty((2 * n_rows, n_half))
        np.take(flat, self._pack[:n_half], axis=1, out=packed[:n_rows], mode="clip")
        np.take(flat, self._pack[n_half:], axis=1, out=packed[n_rows:], mode="clip")
        packed[:, self._offsets[1]:] /= np.sqrt(2.0)
        packed[n_rows:, :self._offsets[1]] = 0.0  # f_{l,0} is real
        return self._order_gemms(packed, series.shape[:-1])

    def _order_gemms(self, packed: np.ndarray, lead: tuple) -> np.ndarray:
        """One synthesis GEMM per order on the packed ``[re rows | im rows]``."""
        h = np.empty((self.lmax, packed.shape[0], _round_up(self.grid.ntheta)))
        for m, op in enumerate(self._syn_ops):
            np.matmul(packed[:, self._offsets[m]:self._offsets[m + 1]], op, out=h[m])
        return h.reshape((self.lmax, 2) + lead + h.shape[-1:])

    def synthesis_from_fourier(self, h: np.ndarray) -> np.ndarray:
        """Evaluate the real field from :meth:`wigner_contraction_inverse` output.

        Parameters
        ----------
        h:
            ``float64`` colatitude samples ``(L, 2, ..., W)`` — no
            Fourier coefficients, despite the name (kept for the callers
            that chain the stages).  Any leading batch shape is allowed —
            stacked inputs are synthesised in single vectorised passes,
            and each leading slice of the output is bit-identical to
            transforming that slice alone.

        Returns
        -------
        numpy.ndarray
            ``float64`` field(s) of shape ``(..., ntheta, nphi)``: where
            :func:`_longitude_by_gemm` says it is cheaper, one GEMM per
            slice of its ``(ntheta, 2L)`` samples, read from ``h`` in
            place, against the plan's ``2L x nphi`` operator; elsewhere an
            inverse real FFT.
        """
        lmax = self.lmax
        ntheta, nphi = self.grid.shape
        lead = h.shape[2:-1]
        if self._lon_syn is not None:
            rows = h.reshape((2 * lmax, -1, h.shape[-1]))[..., :ntheta]
            z = np.matmul(rows.transpose(1, 2, 0), self._lon_syn)
            return z.reshape(lead + self.grid.shape)
        flat = h.reshape((lmax, 2, -1, h.shape[-1]))
        spectrum = np.empty((flat.shape[2], ntheta, lmax), dtype=np.complex128)
        spectrum.real = flat[:, 0, :, :ntheta].transpose(1, 2, 0)
        spectrum.imag = flat[:, 1, :, :ntheta].transpose(1, 2, 0)
        # Z(theta_i, phi_j) = sum_m H_m(theta_i) exp(i m phi_j), H_-m = conj H_m
        z = _fft.irfft(spectrum, n=nphi, axis=-1, norm="forward")
        return z.reshape(lead + self.grid.shape)

    def inverse(self, coeffs: np.ndarray, real: bool = True) -> np.ndarray:
        """Full synthesis: spectral coefficients to grid field(s).

        Parameters
        ----------
        coeffs:
            Complex coefficients of shape ``(..., L**2)`` in flat
            ``(l, m)`` order (cast to ``complex128``).  Any leading batch
            shape is allowed: a stacked ``(n_batch, L**2)`` (or
            ``(n_batch, T, L**2)``) array goes through one GEMM per order
            for the whole stack and through the transforms in blocks of
            :data:`_SYNTHESIS_BLOCK` slices — the batched hot path of
            emulation synthesis.
        real:
            Return the real part of the synthesised field as ``float64``
            — for *every* input: coefficients without the conjugate
            symmetry of a real field are symmetrised first, an
            ``O(L^2)`` pass.  With ``real=False`` the ``complex128``
            field is assembled from two real syntheses, of ``coeffs``
            and of ``-i * coeffs`` (whose real part is the field's
            imaginary part).

        Returns
        -------
        numpy.ndarray
            Field(s) of shape ``(..., ntheta, nphi)``.

        Notes
        -----
        Deterministic and batch-invariant: the transform involves no
        randomness, and every arithmetic step (the per-order GEMMs, the
        longitude stage) operates independently per leading slice, so ``plan.inverse(stacked)[b]`` is
        bit-identical to ``plan.inverse(stacked[b])``.  The
        batched-emulation machinery (:func:`repro.run_campaign` with
        ``batch_size > 1``) relies on this guarantee.
        """
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if not real:
            return self.inverse(coeffs) + 1j * self.inverse(-1j * coeffs)
        return self._synthesize(self.wigner_contraction_inverse, coeffs)

    def inverse_realform(self, series: np.ndarray) -> np.ndarray:
        """``inverse(complex_from_real(series))``, bit for bit, from the real form.

        ``series`` is ``float64`` ``(..., L**2)`` in the packing of
        :mod:`repro.sht.realform`, as the emulator's VAR carries it; all but
        the packing of the GEMM rows is :meth:`inverse`'s own code.
        """
        series = np.asarray(series, dtype=np.float64)
        return self._synthesize(self._contraction_from_realform, series)

    def _synthesize(self, contraction, coeffs: np.ndarray) -> np.ndarray:
        """``contraction(coeffs)`` then the longitude stage, blocked, under spans."""
        if coeffs.shape[-1] != self.n_coeffs:
            raise ValueError(
                f"expected {self.n_coeffs} coefficients, got {coeffs.shape[-1]}"
            )
        lead = coeffs.shape[:-1]
        n_flat = int(np.prod(lead))
        flat = coeffs.reshape((n_flat, self.n_coeffs))
        with span("sht.inverse", lmax=self.lmax, slices=n_flat, bytes=coeffs.nbytes) as sp:
            fields = self._in_parts(sp, n_flat, self.grid.shape, np.float64, lambda a, b, out:
                                    self._synthesis_pass(contraction, flat[a:b], out))
            return fields.reshape(lead + self.grid.shape)

    def _synthesis_pass(self, contraction, flat: np.ndarray, out) -> np.ndarray:
        """:meth:`_synthesize` of ``(n, L**2)`` ``flat``, into ``out`` if given."""
        flops = sht_contraction_flops(self.lmax, len(flat), self.grid.ntheta)
        with span("sht.inverse.contraction", flops=flops):
            h = contraction(flat)
        with span("sht.inverse.fft", slices=len(flat), method=self._longitude_method):
            if len(flat) <= _SYNTHESIS_BLOCK and out is None:
                return self.synthesis_from_fourier(h)
            blocks = h.reshape((self.lmax, 2, len(flat), h.shape[-1]))
            out = np.empty((len(flat),) + self.grid.shape) if out is None else out
            for start in range(0, len(flat), _SYNTHESIS_BLOCK):
                block = blocks[:, :, start:start + _SYNTHESIS_BLOCK]
                out[start:start + _SYNTHESIS_BLOCK] = self.synthesis_from_fourier(block)
            return out

    def _in_parts(self, parent, n_flat: int, tail: tuple, dtype, run) -> np.ndarray:
        """``run(start, stop, out)`` under span ``parent``: whole (``out=None``) or, on the FFT
        side from ``_SPLIT_MIN_SLICES`` slices given two CPUs and an idle worker (busy while it
        runs), as two halves at once into one ``(n_flat, *tail)`` array, the second on it."""
        split = self._lon_syn is None and n_flat >= _SPLIT_MIN_SLICES and (len(
            os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) > 1
        if split:
            fresh = (threading.Lock(), queue.SimpleQueue())
            idle, jobs = _WORKERS.setdefault(os.getpid(), fresh)  # one winner; a fork starts anew
            if idle is fresh[0]:
                threading.Thread(target=_work, args=(jobs,), daemon=True).start()
            out, half, future = np.empty((n_flat,) + tail, dtype=dtype), n_flat // 2, Future()
            split = idle.acquire(blocking=False)
        parent.set(parts=2 if split else 1)
        if not split:
            return run(0, n_flat, None)
        try:
            jobs.put((future, parent, lambda: run(half, n_flat, out[half:])))
            run(0, half, out[:half])
        finally:
            future.exception()  # waits for the worker's half
            idle.release()
        future.result()  # raises the worker's error, if any
        return out

    # ------------------------------------------------------------------ #
    # Utilities
    # ------------------------------------------------------------------ #
    def random_coefficients(
        self,
        rng: np.random.Generator,
        power: np.ndarray | None = None,
        real_field: bool = True,
        shape: tuple[int, ...] = (),
    ) -> np.ndarray:
        """Draw random coefficients, optionally matching a power spectrum.

        Parameters
        ----------
        rng:
            NumPy random generator.
        power:
            Optional per-degree angular power spectrum ``C_l`` (length
            ``L``); coefficients are scaled so that
            ``E[|f_{l,m}|^2] = C_l``.
        real_field:
            Enforce the conjugate symmetry
            ``f_{l,-m} = (-1)**m conj(f_{l,m})`` so the synthesised field is
            real.
        shape:
            Extra leading batch shape.
        """
        ells, ms = degrees_and_orders(self.lmax)
        # One draw for the whole call, in the order a loop over (l, m) asks:
        # degree l has its m = 0 value at `base`, then per order m = 1 .. l
        # the (re, im) of m and, for a complex field, the (re, im) of -m.
        per_order = 2 if real_field else 4
        base = ells + per_order * (ells * (ells - 1) // 2)
        pos = np.flatnonzero(ms > 0)
        first = base[pos] + per_order * (ms[pos] - 1) + 1
        draws = np.moveaxis(
            rng.standard_normal((self.lmax + per_order * pos.size,) + shape), 0, -1
        )
        out = np.zeros(shape + (self.n_coeffs,), dtype=np.complex128)
        out[..., ms == 0] = draws[..., base[ms == 0]]
        value = (draws[..., first] + 1j * draws[..., first + 1]) / np.sqrt(2.0)
        out[..., pos] = value
        if real_field:
            mirror = ((-1) ** ms[pos]) * np.conj(value)
        else:
            mirror = (draws[..., first + 2] + 1j * draws[..., first + 3]) / np.sqrt(2.0)
        out[..., pos - 2 * ms[pos]] = mirror
        scale = 1.0 if power is None else np.sqrt(np.maximum(power, 0.0))[ells]
        return out * scale
