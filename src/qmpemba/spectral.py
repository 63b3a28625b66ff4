"""Spectral decomposition of the Lindblad generator into paired modes.

The generator preserves Hermiticity, so in an orthonormal basis of Hermitian
operators its matrix is real.  Diagonalizing that real matrix (and mapping the
eigenvectors back to the column-stacking frame) buys three structural
guarantees that a generic complex eigensolver cannot give:

* complex eigenvalues come in exactly conjugate pairs, and the paired modes
  are exact adjoints of each other;
* real eigenvalues have exactly Hermitian right and left eigenmatrices;
* the slow real eigenvalue carries no spurious imaginary part.

The change of basis is a sparse map (a permutation plus 2x2 mixing blocks,
at most two nonzeros per row), so no dense d^2 x d^2 basis is ever formed.
The real generator is split into the connected components of its nonzero
pattern, and each block is diagonalized on its own: a symmetry of the model
shows up as exact zeros between blocks without any model-specific code.  At
N=40 the dicke generator splits into blocks of 841 and 840 (the parity of
i - j); the all-to-all generator stays one block of 1681.

Each block is kept sparse and densified only for its eigensolve.  Left
modes are rows of the inverse of the right eigenvector matrix, so
``Tr(l_k r_h) = delta_kh`` holds to solver accuracy by construction.
The few slowest modes, which carry all the downstream physics,
are additionally polished by shifted inverse iteration on the sparse block,
with a sparse LU.  Every dense LAPACK call runs on numpy's OpenBLAS: scipy
loads a second OpenBLAS, whose thread pool would spin against numpy's on the
same cores.  The inverse in ``linalg`` goes through ``np.linalg``; the
eigensolve here calls numpy's own ``dgeev`` through ``ctypes``, which
releases the GIL, so the blocks are solved concurrently, one thread per
block at one BLAS thread each.  Its dense block, eigenvectors and workspace
live in anonymous mappings, which go back to the OS when freed, where a
thread's malloc arena would keep them.

After one global sort, each block's eigenvector matrix is inverted and
unpacked into units, one per real mode or conjugate pair, and its arrays are
released before the next block's.  A pair is two real columns of the
eigenvector matrix and two real rows of its inverse: its polish takes one
sparse LU, and each normalization of it is a 2x2 real map, which
``_finish_block`` applies to any subset of a block's units.  The modes stay
in the basis coordinates they are solved in, stored once as real rows over
the block's basis rows (``HermitianModes``).
Full complex matrices are kept only for the identity, the slow left mode and
the stationary state; full mode arrays are expanded on request.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla  # unused: bench/workloads.py KERNELS rebinds it until ROADMAP item A
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import (
    ComplexSlowMode,
    DegenerateSlowMode,
    DegenerateStationaryState,
    IllConditionedBasis,
    NoConvergence,
    NotHermitian,
    NotHermitianSlowMode,
    ShapeMismatch,
)
from .linalg import max_abs, refined_inverse
from .superop import Superoperator, vec

TOL_ZERO_FACTOR = 1e-9
TOL_IMAG_FACTOR = 1e-8
TOL_GAP_FACTOR = 1e-10
SLOW_MODE_HERM_TOL = 1e-7
CONDITION_WARN_THRESHOLD = 1e10
REFINE_MODES = 3

_REFINE_SEPARATION_FACTOR = 1e-6
_REFINE_SHIFT_JITTER = 1e-12
_ENTRY_SLICES = 8
_KEPT_GRIDS = 4  # grids whose tables a HermitianModes keeps; the oldest goes first


@dataclass(frozen=True)
class AssumptionFlags:
    """Validity of the working assumptions behind the mode construction."""

    stationary_unique: bool
    slow_mode_real: bool
    slow_mode_unique: bool

    @property
    def clean(self) -> bool:
        return self.stationary_unique and self.slow_mode_real and self.slow_mode_unique


@dataclass(frozen=True)
class Diagnostics:
    condition_estimate: float
    biorthonormality_residual: float  # max|Tr(l_k r_h) - delta_kh| over the units finished
    fixed_point_residual: float
    max_real_part: float
    stationary_min_eigenvalue: float
    tol_zero: float
    tol_imag: float
    tol_gap: float
    flags: AssumptionFlags


@dataclass(frozen=True)
class HermitianModes:
    """The modes of a decomposition in real Hermitian coordinates, block by block.

    A Hermitian matrix X is held by its n = d^2 real coordinates
    ``x_a = Tr(B_a X)`` in the orthonormal Hermitian basis that ``decompose``
    solves in: ``basis`` holds the rows ``vec(B_a)`` of
    ``hermitian_operator_basis_rows``, reordered so that every block is one
    contiguous slice.  ``coordinates`` maps a matrix to them and
    ``hermitian`` maps rows back through the same sparse map, into exactly
    Hermitian matrices.  The basis is orthonormal, so the Hilbert-Schmidt
    norm of X is the Euclidean norm of x (``norms``), and
    ``Tr(ell X) = trace_row(ell) . x``.  ``generator`` is the real generator
    in these coordinates: the CSR block-diagonal matrix of the solved blocks.

    A unit is a real mode or the Im lambda > 0 member of a conjugate pair.
    The Im lambda < 0 partner is dropped: it is the exact adjoint, so with
    ``z = c e^{lambda t} = P + iQ`` a pair contributes
    ``z r + (z r)^H = P (r + r^H) + Q i (r - r^H)``, two Hermitian matrices.
    With v and w the complex coordinates of r and l (``r = sum_a v_a B_a``,
    ``Tr(l X) = w . x``), each block holds ``(coords, lam, left, right,
    peak)``: its coordinate slice; the units' eigenvalues, sorted by
    ``|Re lambda|``; the real rows ``left[2u], left[2u + 1]``, Re w and Im w;
    the rows ``right[2u], right[2u + 1]``, 2 Re v and -2 Im v, the
    coordinates of ``r + r^H`` and ``i (r - r^H)`` (halved for a real mode,
    whose second row is then zero); and ``peak[u]``, ``max|r_u|`` counted
    once for each member the unit stands for, so that ``|c_u| peak[u]``
    bounds the unit's term in every entry at t=0 and is the weight
    ``sum |c_k| max|r_k|`` of its members.  The stationary mode is no unit;
    ``stationary`` holds its coordinates.
    ``grid_tables`` keeps the mode sum's tables of the last ``_KEPT_GRIDS``
    grids; a copy made with ``dataclasses.replace`` keeps its own.
    """

    basis: sp.csr_matrix
    blocks: tuple
    stationary: np.ndarray
    generator: sp.csr_matrix
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def assemble(cls, basis: sp.csr_matrix, rows: list, blocks: list,
                 stationary_state: np.ndarray, generator: sp.csr_matrix):
        """The packed form from each block's basis rows and ``(lam, left, right, peak)``."""
        stops = np.cumsum([r.size for r in rows])
        blocks = [(slice(stop - r.size, stop), *units)
                  for r, stop, units in zip(rows, stops, blocks)]
        basis = basis[np.concatenate(rows)]
        return cls(basis=basis, blocks=tuple(blocks),
                   stationary=(basis.conj() @ vec(stationary_state)).real, generator=generator)

    @cached_property
    def basis_conj(self) -> sp.csr_matrix:
        """The conjugate of ``basis``, built once."""
        return self.basis.conj()

    def grid_tables(self, key: tuple, build) -> list:
        """``build()``, per block a tuple of arrays, kept read-only under ``key``, their inputs."""
        tables = self._grids.get(key)
        if tables is None:
            tables = build()
            for array in (a for block in tables for a in block):
                array.flags.writeable = False
            tables = self._grids.setdefault(key, tables)  # another thread's, if it came first
            while len(self._grids) > _KEPT_GRIDS:
                self._grids.pop(next(iter(self._grids)), None)
        return tables

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """The coordinates ``Tr(B_a X)`` of the Hermitian part of the (d, d) matrix ``x``."""
        return (self.basis_conj @ vec(x)).real

    def hermitian(self, rows: np.ndarray) -> np.ndarray:
        """The stack of Hermitian matrices whose coordinates are the rows of ``rows``.

        ``rows @ conj(basis)`` is ``vec`` of the conjugate, that is of the
        transpose, so its C-order reshape is the matrix itself.
        """
        d = math.isqrt(self.stationary.size)
        return np.ascontiguousarray((rows @ self.basis_conj).reshape(-1, d, d))

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt norms of the Hermitian matrices with the coordinates ``rows``."""
        return np.sqrt(np.einsum("ti,ti->t", rows, rows))

    def trace_row(self, ell: np.ndarray) -> np.ndarray:
        """The complex row ``Tr(ell B_a)``, so that ``Tr(ell X) = r . x`` for Hermitian X.

        For a Hermitian ``ell`` it is the coordinate row of ``ell``.
        """
        return self.basis @ ell.ravel()


@dataclass(frozen=True)
class SpectralDecomposition:
    """Sorted eigenvalues with their biorthonormal modes, stored packed per block.

    ``eigenvalues[k]`` pairs the left mode l_k with the right mode r_k under
    the trace pairing.  ``packed`` is the only store of the modes: each
    block's units in the real coordinates of the orthonormal Hermitian basis
    that the generator was diagonalized in (see ``HermitianModes``), the
    form that the mode sum runs on.  Production reads only three full
    matrices: ``stationary_state``, the trace-one r_1, and ``leading_left``,
    which holds l_1 (exactly the identity) and the slow left mode l_2, with
    exactly the values that ``decompose`` computed.

    ``left_modes`` and ``right_modes`` expand the packed form into full
    (m, d, d) arrays on first use and keep them.  Real modes come back
    exactly; the members of a conjugate pair come back to rounding of the
    packed sums, the Im lambda < 0 member as the exact adjoint of its partner.
    ``left_modes[:2]`` is ``leading_left`` and ``right_modes[0]`` is
    ``stationary_state``.  ``slow_mode`` and ``slow_row``, the slow left mode
    in the forms that every rotation and trajectory reads, are likewise built
    on first use and kept.  A copy made with ``dataclasses.replace`` expands
    its own fields.

    ``blocks`` holds the global mode indices of each connected block of the
    generator, in ascending order and so sorted by ``|Re lambda|``, in the
    order of ``packed.blocks``.  Every right and left mode of a block is
    exactly zero outside the column-stacking support of that block's basis
    rows, and the supports of different blocks are disjoint.
    """

    eigenvalues: np.ndarray
    packed: HermitianModes
    leading_left: np.ndarray
    blocks: tuple
    stationary_state: np.ndarray
    tau: float
    gap3: float
    diagnostics: Diagnostics

    @property
    def dim(self) -> int:
        return self.stationary_state.shape[0]

    @cached_property
    def left_modes(self) -> np.ndarray:
        return _full_modes(self, left=True)

    @cached_property
    def right_modes(self) -> np.ndarray:
        return _full_modes(self, left=False)

    @cached_property
    def slow_mode(self) -> tuple:
        """``hermitize_slow_mode`` and its ``slow_mode_spectrum``, read-only; a raise keeps none."""
        from . import mpemba  # which imports this module
        ell2 = hermitize_slow_mode(self)
        levels = mpemba.slow_mode_spectrum(ell2)
        for array in (ell2, levels.alphas, levels.phis):
            array.flags.writeable = False
        return ell2, levels

    @cached_property
    def slow_row(self) -> tuple:
        """``(pair, offset)``: l2's ``trace_row`` as real columns Re, Im and ``Tr(l_2 rho_ss)``."""
        ell = self.packed.trace_row(self.leading_left[1])
        pair = np.stack([ell.real, ell.imag], axis=1)
        pair.flags.writeable = False
        return pair, ell @ self.packed.stationary


def _full_modes(dec: SpectralDecomposition, left: bool) -> np.ndarray:
    """All left or all right modes as one (m, d, d) array, expanded from ``dec.packed``.

    With the Hermitian matrices A, B of a unit's two rows, a right mode is
    ``(A - iB) / 2`` (``A`` for a real mode, stored halved) and a left mode
    is ``A + iB``.
    """
    lam, packed = dec.eigenvalues, dec.packed
    out = np.zeros((lam.size, dec.dim, dec.dim), dtype=complex)
    for modes, (coords, lam_u, l_rows, r_rows, _) in zip(dec.blocks, packed.blocks):
        rows = np.zeros((2 * lam_u.size, packed.stationary.size))
        rows[:, coords] = l_rows if left else r_rows
        h = packed.hermitian(rows)
        a, b = h[0::2], h[1::2]
        units = modes[(lam[modes].imag >= 0) & (modes != 0)]
        out[units] = a + 1j * b if left else a - 1j * b
        if not left:
            out[units[lam_u.imag != 0]] /= 2
    if left:
        out[:2] = dec.leading_left
    else:
        out[0] = dec.stationary_state
    for modes in dec.blocks:
        partners = modes[_conjugate_partners(lam[modes])]
        down = lam[modes].imag < 0
        out[modes[down]] = out[partners[down]].conj().transpose(0, 2, 1)
    return out


def hermitian_operator_basis_rows(d: int) -> sp.csr_matrix:
    """Rows ``vec(B_a)`` of an orthonormal Hermitian operator basis, as a sparse map.

    Ordering: the d diagonal projectors, then for each i<j the symmetric and
    antisymmetric (imaginary) pair, both scaled by 1/sqrt(2).  Row ``a`` has
    at most two nonzeros: ``B_a[i, i] = 1`` for a projector; ``B_a[i, j]`` and
    ``B_a[j, i]`` equal to ``1/sqrt(2)`` (symmetric) or ``-i/sqrt(2)`` and
    ``i/sqrt(2)`` (antisymmetric).
    """
    s2 = 1.0 / np.sqrt(2.0)
    i, j = np.triu_indices(d, 1)
    lo, hi = j + i * d, i + j * d  # vec positions of B[j, i] and B[i, j]; lo < hi
    pair_cols = np.stack([lo, hi, lo, hi], axis=1).reshape(-1, 2)
    pair_vals = np.tile([[s2, s2], [1j * s2, -1j * s2]], (i.size, 1))
    cols = np.concatenate([np.arange(d) * (d + 1), pair_cols.ravel()])
    vals = np.concatenate([np.ones(d, dtype=complex), pair_vals.ravel()])
    indptr = np.concatenate([np.arange(d + 1), d + 2 * np.arange(1, 2 * i.size + 1)])
    return sp.csr_matrix((vals, cols, indptr), shape=(d * d, d * d))


def _sort_order(lam: np.ndarray) -> np.ndarray:
    # ascending |Re|, ties by ascending |Im|, then Im >= 0 first
    return np.lexsort(
        (np.where(lam.imag >= 0, 0, 1), np.abs(lam.imag), np.abs(lam.real))
    )


def _conjugate_partners(lam: np.ndarray) -> np.ndarray:
    """partners[k] = index of the exactly conjugate mode (k itself for real modes).

    The real eigensolver returns every complex pair as exact conjugates.  The
    i-th mode of a value z with Im z > 0, in the given order, is paired with
    the i-th mode of value conj(z).  If the two half planes do not match value
    for value, no complex mode is paired.
    """
    partners = np.arange(lam.size)
    up = np.flatnonzero(lam.imag > 0)
    down = np.flatnonzero(lam.imag < 0)
    up = up[np.lexsort((lam.imag[up], lam.real[up]))]  # stable: equal values keep their order
    down = down[np.lexsort((-lam.imag[down], lam.real[down]))]
    if up.size == down.size and np.array_equal(lam[up], lam[down].conj()):
        partners[up], partners[down] = down, up
    return partners


def _blocks(lr: sp.csr_matrix, basis: sp.csr_matrix) -> list[np.ndarray]:
    """Basis-row indices of the connected blocks of ``lr``, each ascending.

    Two rows are connected through a nonzero ``lr`` entry in either
    direction.  The symmetric and antisymmetric row of a pair i<j share their
    column-stacking support and are always one node of the graph, so
    different blocks have disjoint supports in the column-stacking frame.
    """
    m = lr.shape[0]
    node = basis.indices[basis.indptr[:-1]]  # first support position of each row
    r, c = lr.nonzero()
    graph = sp.csr_matrix((np.ones(r.size), (node[r], node[c])), shape=(m, m))
    _, labels = connected_components(graph, directed=True, connection="weak")
    labels = labels[node]
    return [np.flatnonzero(labels == b) for b in np.unique(labels)]


def _refine_pair(lr, lam_k, v, w, scale):
    """One-shift inverse iteration for the right and left vectors of lam_k.

    The sparse block ``lr - shift`` is factored once by a sparse LU
    (``splu``).  The right vector takes two solves with the factors, the left
    vector two solves with their conjugate transpose (``trans="H"``), since
    ``w (lr - shift) = 0`` is ``(lr - shift)^H w^H = 0``; the eigenvalue is
    the two-sided Rayleigh quotient.  A real lam_k keeps a real shift, a real
    factorization and real vectors.  Returns None when the factor is exactly
    singular or the two vectors do not pair or are not finite.
    """
    shift = lam_k + _REFINE_SHIFT_JITTER * scale
    is_real = lam_k.imag == 0.0
    if is_real:
        shift, v, w = shift.real, v.real, w.real
    shifted = lr - shift * sp.identity(lr.shape[0], format="csc")
    try:
        lu = splu(shifted)
    except RuntimeError:  # exactly singular
        return None
    wc = w.conj()
    for _ in range(2):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
        wc = lu.solve(wc, trans="H")
        wc /= np.linalg.norm(wc)
    w = wc.conj()
    denom = w @ v
    if denom == 0 or not np.isfinite(denom):
        return None
    lam_new = (w @ (lr @ v)) / denom
    return (complex(lam_new.real) if is_real else lam_new), v, w


def _bind_lapack():
    """numpy's own ``dgeev`` and OpenBLAS thread count calls through ``ctypes``, or Nones.

    numpy's wheels link scipy-openblas64 (64-bit integers, decorated symbols);
    its pthreads ``openblas_set_num_threads_local`` sets the process's count.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        calls = (lib.scipy_dgeev_64_, lib.scipy_openblas_get_num_threads64_,
                 lib.openblas_set_num_threads_local)
    except (ImportError, OSError, AttributeError):
        return None, None, None
    dgeev, threads, set_threads = calls
    dgeev.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 12 + [ctypes.c_size_t] * 2
    threads.argtypes, set_threads.argtypes = [], [ctypes.c_int]
    dgeev.restype, threads.restype, set_threads.restype = None, ctypes.c_int, ctypes.c_int
    return calls


_DGEEV, _BLAS_THREADS, _SET_BLAS_THREADS = _bind_lapack()
_MAPPED = {"live": 0, "peak": 0}  # bytes in _mapped buffers, which tracemalloc does not see
_MAPPED_LOCK = threading.Lock()
_BLAS_LOCK = threading.Lock()  # one concurrent eigensolve at a time sets the thread count


def _count_mapped(nbytes):
    with _MAPPED_LOCK:
        _MAPPED["live"] += nbytes
        _MAPPED["peak"] = max(_MAPPED["peak"], _MAPPED["live"])


def _mapped(shape, order="C"):
    """A zeroed float64 array in an anonymous mapping of its own, unmapped with its last view.

    glibc keeps a freed heap block in the arena of the thread that made it,
    while a mapping goes back to the OS when it is freed.
    """
    nbytes = 8 * math.prod(shape)
    buf = mmap.mmap(-1, max(nbytes, 1), flags=mmap.MAP_PRIVATE)
    _count_mapped(nbytes)
    weakref.finalize(buf, _count_mapped, -nbytes)
    return np.ndarray(shape, buffer=buf, order=order)


def _block_eig(sub):
    """Eigenvalues of one sparse real block and LAPACK's real eigenvector matrix VR.

    A pair is listed Im > 0 first, at j and j + 1, with eigenvectors
    VR[:, j] +- i VR[:, j + 1].  The bound ``dgeev`` solves the block in
    mapped buffers and releases the GIL; ``np.linalg.eig`` is the fallback.
    """
    if not np.all(np.isfinite(sub.data)):
        raise NoConvergence("generator eigensolver failed: non-finite generator block")
    n = sub.shape[0]
    if _DGEEV is None:
        try:
            lam, v = np.linalg.eig(sub.toarray())
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NoConvergence(f"generator eigensolver failed: {exc}") from exc
        vr, second = v.real, np.flatnonzero(lam.imag < 0)
        vr[:, second] = v.imag[:, second - 1]
        return lam.astype(complex, copy=False), vr
    a, wr_wi, vr = _mapped((n, n), "F"), _mapped((2, n)), _mapped((n, n), "F")
    sub.toarray(out=a)
    ints = np.array([n, n, 1, n, -1, 0], dtype=np.int64)  # N, LDA, LDVL, LDVR, LWORK, INFO
    p = ints.ctypes.data

    def dgeev(work):
        _DGEEV(b"N", b"V", p, a.ctypes.data, p + 8, wr_wi[0].ctypes.data, wr_wi[1].ctypes.data,
               None, p + 16, vr.ctypes.data, p + 24, work.ctypes.data, p + 32, p + 40, 1, 1)

    work = np.zeros(1)
    dgeev(work)  # LWORK = -1: the optimal LWORK comes back in work[0]
    ints[4] = int(work[0])
    dgeev(_mapped((ints[4],)))
    if ints[5] != 0:
        raise NoConvergence(f"generator eigensolver failed: dgeev info {ints[5]}")
    return wr_wi[0] + 1j * wr_wi[1], vr


def _eigensolve(subs):
    """``_block_eig`` of every block, up to one thread per block, each at one BLAS thread.

    The calling thread solves the first block and a worker each further one,
    up to numpy's BLAS thread count, which is set to 1 meanwhile (for the
    whole process: other threads' BLAS calls run at one thread too).  A
    single block, or no bound ``dgeev``, is solved on the calling thread at
    the process's thread count.
    """
    workers = min(len(subs), _BLAS_THREADS()) if _DGEEV is not None else 1
    if workers < 2:
        return [_block_eig(sub) for sub in subs]
    with _BLAS_LOCK:
        threads = _SET_BLAS_THREADS(1)
        try:
            with ThreadPoolExecutor(workers - 1) as pool:
                rest = pool.map(_block_eig, subs[1:])
                return [_block_eig(subs[0]), *rest]
        finally:
            _SET_BLAS_THREADS(threads)


def _pack(lam_b, vr):
    """Sorted eigenvalues of one block, their partners and the packed eigenvector matrix.

    The packed REAL matrix (C order: GEMM rounding depends on layout) holds a
    in the Im > 0 column of a pair a +- ib and b in its partner's, so that its
    real inverse keeps real modes exactly real and paired modes exactly
    conjugate.  Partners are found within a block, so that an exact
    degeneracy across blocks cannot pair vectors with different supports.
    """
    order_b = _sort_order(lam_b)
    lam_b = lam_b[order_b]
    partners_b = _conjugate_partners(lam_b)
    up = np.flatnonzero(lam_b.imag > 0)
    src = order_b - (lam_b.imag < 0)  # an Im < 0 member's a is its LAPACK mate's column
    src[partners_b[up]] = order_b[up] + 1
    packed = _mapped(vr.shape)
    np.take(vr, src, axis=1, out=packed, mode="clip")  # "clip": no buffered copy
    return lam_b, partners_b, packed


def _polish(sub, mode, mate, left, right, lam, scale):
    """Polish the units with ``mode[u] < REFINE_MODES`` in place: they carry all the physics.

    Unit u is the mode ``mode[u]`` with its partner ``mate[u]`` and holds Re
    and Im of its vectors in ``left[u]`` and ``right[u]``; the partner's are
    their conjugates, so a pair takes one sparse LU for both members.
    """
    for u in range(int(np.searchsorted(mode, REFINE_MODES))):
        k = mode[u]
        others = np.abs(lam - lam[k])
        others[[k, mate[u]]] = np.inf
        if k > 0 and np.min(others) <= _REFINE_SEPARATION_FACTOR * scale:
            continue
        (xl, yl), (xr, yr) = left[u], right[u]
        out = _refine_pair(sub, complex(lam[k]), xr + 1j * yr, xl + 1j * yl, scale)
        if out is not None:
            lam_new, v_new, w_new = out
            lam[mate[u]], lam[k] = np.conj(lam_new), lam_new  # k last: a real k is its own mate
            xr[:], yr[:], xl[:], yl[:] = v_new.real, v_new.imag, w_new.real, w_new.imag


def _largest_entries(rows, conj_basis):
    """Per unit x + iy of ``rows``, the modulus and value of its first largest entry in C order.

    ``z @ conj_basis`` lists the entries of ``sum_a z_a B_a`` in C order; it
    is split here into real products, a slice of the units at a time.
    """
    re_b, im_b = conj_basis.real, conj_basis.imag
    top, val = np.empty(len(rows)), np.empty(len(rows), dtype=complex)
    step = max(1, -(-len(rows) // _ENTRY_SLICES))
    for cut in (slice(i, i + step) for i in range(0, len(rows), step)):
        x, y = rows[cut, 0], rows[cut, 1]
        re, im = x @ re_b - y @ im_b, x @ im_b + y @ re_b
        mod = np.hypot(re, im)
        at, k = np.arange(len(mod)), np.argmax(mod, axis=1)
        top[cut], val[cut] = mod[at, k], re[at, k] + 1j * im[at, k]
    return top, val


def _scale_units(rows, c):
    """Multiply each unit x + iy of ``rows`` by the complex c[u], in place."""
    x, y, re, im = rows[:, 0], rows[:, 1], c.real[:, None], c.imag[:, None]
    t = x * im
    x *= re
    x -= y * im
    y *= re
    y += t


def _finish_block(rows, mode, pair, left, right, lam, basis, ell2, stationary):
    """Finish units of one block in real arithmetic: their packed rows, peaks and residual.

    Unit u, a real mode or the Im > 0 member of a pair (``pair[u]``), is the
    mode ``mode[u]``, ascending; ``left[u]`` and ``right[u]`` hold Re and Im
    of its l and r over the block's basis rows ``rows``.  The units may be
    any subset of a block's: each is finished on its own rows, and the
    residual covers the units given.  Writes l_2 into ``ell2`` and r_1 into
    ``stationary`` when the units hold them.
    """
    n = rows.size
    first = int(mode[0] == 0)
    if first:
        # l_1 is the identity, exactly: mode 0 is simple and first in its block
        left[0, 0] = rows < math.isqrt(basis.shape[0])
        tr_r1 = left[0, 0] @ right[0, 0]
        if abs(tr_r1) < 1e-14:
            raise NoConvergence("stationary candidate has numerically zero trace")
        right[0, 0] /= tr_r1

    # pairing normalization Tr(l_u r_u) = 1, the balance of the two norms and
    # the phase of the first largest-modulus entry of l_u (real positive; a
    # sign for a real mode, preserving exact Hermiticity), one map per unit
    conj_basis = basis[rows]
    support = np.unique(conj_basis.indices)
    conj_basis = conj_basis[:, support].conj()
    lu, ru = left[first:], right[first:]
    g = np.einsum("uin,ujn->uij", lu, ru)
    diag = g[:, 0, 0] - g[:, 1, 1] + 1j * (g[:, 0, 1] + g[:, 1, 0])
    if np.any(diag == 0):
        raise NoConvergence("vanishing left/right pairing; basis unusable")
    ratio = np.einsum("uin,uin->u", ru, ru) / np.einsum("uin,uin->u", lu, lu)
    bal = np.sqrt(np.sqrt(ratio) * np.abs(diag))  # sqrt(|r_u| / |l_u / diag_u|)
    val = _largest_entries(lu, conj_basis)[1] * (bal / diag)
    mag = np.abs(val)
    flip = (val.real < 0) | ((val.real == 0) & (val.imag < 0))
    factor = np.where(pair[first:], np.conj(val) / np.where(mag > 0, mag, 1.0),
                      np.where(flip, -1.0, 1.0))
    factor[mag == 0] = 1.0
    _scale_units(lu, bal / diag * factor)
    _scale_units(ru, 1.0 / (bal * factor))
    if 1 in mode:
        xl, yl = left[np.searchsorted(mode, 1)]
        ell2.reshape(-1)[support] = (xl + 1j * yl) @ conj_basis

    # max|Tr(l_k r_h) - delta_kh| over the units k and their modes h, from the
    # products a, b, c, e of Re l_k, Im l_k with Re r_h, Im r_h: Tr(l_k r_h) =
    # (a - b) + i (c + e), and (a + b) + i (e - c) for the partner h' of h.  An
    # Im < 0 mode's row is conjugate, and pairings across blocks are exactly 0
    left, right = left.reshape(-1, n), right.reshape(-1, n)
    prod = (left @ right.T).reshape(mode.size, 2, mode.size, 2)
    a, b, c, e = prod[:, 0, :, 0], prod[:, 1, :, 1], prod[:, 0, :, 1], prod[:, 1, :, 0]
    re = a - b
    re.flat[:: mode.size + 1] -= 1.0
    residual = float(np.max(np.hypot(re, c + e, out=re)))
    re = a + b
    re.flat[:: mode.size + 1] -= ~pair
    residual = max(residual, float(np.max(np.hypot(re, e - c, out=re))))
    del prod, a, b, c, e, re

    # the stored right rows are 2 Re r and -2 Im r (Re r alone for a real mode)
    ru *= np.where(pair[first:], 2.0, 1.0)[:, None, None] * [[1.0], [-1.0]]
    if first:
        stationary.reshape(-1)[support] = right[0] @ conj_basis
    units = (lam[mode[first:]], lu.reshape(-1, n), ru.reshape(-1, n),
             _largest_entries(ru, conj_basis)[0])
    return units, residual


def decompose(
    sup: Superoperator,
    *,
    tol_imag_factor: float = TOL_IMAG_FACTOR,
    tol_gap_factor: float = TOL_GAP_FACTOR,
) -> SpectralDecomposition:
    """Full mode decomposition of a Lindblad generator matrix.

    Parameters
    ----------
    sup:
        Superoperator of kind ``"generator"``.
    tol_*_factor:
        Relative tolerances, scaled by ``max|eigenvalue|``.

    The CSR generator is taken to the Hermitian operator basis by the sparse
    map of :func:`hermitian_operator_basis_rows`, where it is real and stays
    sparse; a generator that does not preserve Hermiticity raises
    ``NotHermitian``.  Each connected block of the real matrix (its nonzero
    pattern as a graph) is kept as a sparse CSC matrix; a dense copy of it
    lives only for its eigensolve (``_eigensolve``, the blocks at once), and
    the eigenvalues of all blocks are merged into one sorted spectrum.  Then
    each block's packed eigenvector matrix and its real inverse are unpacked
    into the real rows of its units, the units among the ``REFINE_MODES``
    slowest modes are polished by shifted inverse iteration (``_polish``),
    and ``_finish_block`` applies the trace, pairing and phase normalizations
    and the biorthonormality product to the units, whose rows
    ``HermitianModes`` keeps as the only mode storage of the result.  No
    complex n_b x n_b and no m x d x d array is formed.  ``packed.generator``
    keeps the blocks in one CSR.

    Violated assumptions raise ``ComplexSlowMode`` or ``DegenerateSlowMode``
    with the finished decomposition attached.  A degenerate zero eigenvalue
    raises ``DegenerateStationaryState`` (there is no meaningful stationary
    normalization to return).
    """
    if sup.kind != "generator":
        raise ValueError(f"decompose expects a generator, got kind={sup.kind!r}")
    mat = sup.matrix
    m = mat.shape[0]
    d = sup.dim
    if d * d != m or mat.shape[1] != m:
        raise ShapeMismatch(f"superoperator matrix shape {mat.shape} is not d^2 x d^2")

    basis = hermitian_operator_basis_rows(d)
    lr = basis.conj() @ mat @ basis.T
    imag = float(abs(lr.imag).max())
    if imag > 1e-10 * max(float(abs(mat).max()), 1e-300):
        raise NotHermitian(
            "generator is not Hermiticity-preserving: its matrix in a "
            f"Hermitian operator basis has imaginary part {imag:.3e}"
        )
    lr = lr.real
    lr.eliminate_zeros()

    # (basis rows, sparse block of lr, sorted eigenvalues, partners, packed
    # eigenvectors); each block's VR is freed once it is packed
    block_rows = _blocks(lr, basis)
    subs = [lr[rows][:, rows].tocsc() for rows in block_rows]
    del lr
    eigs = _eigensolve(subs)
    blocks = [[rows, sub, *_pack(*eigs.pop(0))] for rows, sub in zip(block_rows, subs)]
    generator = sp.block_diag(subs, format="csr")
    del subs

    # the stable global sort keeps each block's modes in their block order,
    # so modes[b] lists block b's global mode indices in its own order
    lam_cat = np.concatenate([b[2] for b in blocks])
    order = _sort_order(lam_cat)
    lam = lam_cat[order]
    block_of = np.repeat(np.arange(len(blocks)), [b[2].size for b in blocks])[order]
    modes = [np.flatnonzero(block_of == b) for b in range(len(blocks))]

    scale = max(float(np.max(np.abs(lam))), 1e-300)
    tol_zero = TOL_ZERO_FACTOR * scale
    tol_imag = tol_imag_factor * scale
    tol_gap = tol_gap_factor * scale

    n_zero = int(np.sum(np.abs(lam) <= tol_zero))
    if n_zero != 1:
        raise DegenerateStationaryState(
            f"found {n_zero} eigenvalues within {tol_zero:.3e} of zero; "
            "a unique stationary state requires exactly one",
            eigenvalues=lam,
        )

    # every dense array of a block is released before the next block's are
    # made.  A pair a +- ib is the columns a, b of V and its left modes
    # (p -+ iq)/2 the rows p, q of W = V^-1; its unit is the Im > 0 member
    leading_left = np.stack([np.eye(d, dtype=complex), np.zeros((d, d))])
    stationary = np.zeros((d, d), dtype=complex)
    finished, norms = [], []
    for pos in modes:
        rows, sub, lam_b, partners_b, v = blocks.pop(0)
        local = np.arange(lam_b.size)
        if np.any((lam_b.imag != 0) & (partners_b == local)):
            raise NoConvergence("unpaired complex eigenvalue from the real eigensolver")
        w, _ = refined_inverse(v)
        norms.append((float(np.linalg.norm(v, 1)), float(np.linalg.norm(w, 1))))
        twin = np.stack([local, partners_b], axis=1)[partners_b >= local]  # each unit's members
        mode, mate = pos[twin].T  # unit u is the mode mode[u], with the partner mate[u]
        left = w[twin]
        del w
        right = v.T[twin]
        del v, twin
        pair = mate != mode
        left[~pair, 1] = right[~pair, 1] = 0.0  # a real mode is its own partner: no Im rows
        left *= np.where(pair[:, None], [0.5, -0.5], 1.0)[:, :, None]
        _polish(sub, mode, mate, left, right, lam, scale)
        del sub
        finished.append(_finish_block(rows, mode, pair, left, right, lam, basis,
                                      leading_left[1], stationary))
    units_b, residuals = zip(*finished)
    # the 1-norm of a block-diagonal matrix is the largest of its blocks'
    cond = max(nv for nv, _ in norms) * max(nw for _, nw in norms)
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"generator eigenbasis condition estimate {cond:.2e} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; pairing accuracy is limited",
            IllConditionedBasis,
            stacklevel=2,
        )

    min_eig = float(np.min(np.linalg.eigvalsh(stationary)))

    lam2, lam3 = lam[1], lam[2]
    tau = 1.0 / abs(lam2)
    gap3 = float(abs(lam3.real) - abs(lam2.real))
    flags = AssumptionFlags(
        stationary_unique=True,
        slow_mode_real=bool(abs(lam2.imag) <= tol_imag),
        slow_mode_unique=bool(gap3 >= tol_gap),
    )

    fixed_point = float(np.max(np.abs(mat @ vec(stationary)))) / scale
    diagnostics = Diagnostics(
        condition_estimate=cond,
        biorthonormality_residual=max(residuals),
        fixed_point_residual=fixed_point,
        max_real_part=float(np.max(lam.real)),
        stationary_min_eigenvalue=min_eig,
        tol_zero=tol_zero,
        tol_imag=tol_imag,
        tol_gap=tol_gap,
        flags=flags,
    )
    dec = SpectralDecomposition(
        eigenvalues=lam,
        packed=HermitianModes.assemble(basis, block_rows, units_b, stationary, generator),
        leading_left=leading_left,
        blocks=tuple(modes),
        stationary_state=stationary,
        tau=tau,
        gap3=gap3,
        diagnostics=diagnostics,
    )
    if not flags.slow_mode_real:
        raise ComplexSlowMode(
            f"Im(lambda_2) = {lam2.imag:.3e} exceeds {tol_imag:.3e}",
            decomposition=dec,
        )
    if not flags.slow_mode_unique:
        raise DegenerateSlowMode(
            f"|Re lambda_3| - |Re lambda_2| = {gap3:.3e} below {tol_gap:.3e}",
            decomposition=dec,
        )
    return dec


def hermitize_slow_mode(dec: SpectralDecomposition) -> np.ndarray:
    """Return the slow left mode as an exactly Hermitian matrix.

    Raises ``NotHermitianSlowMode`` when the anti-Hermitian part exceeds
    ``1e-7 * max|l_2|`` (a violated realness assumption or solver failure).
    """
    if not dec.diagnostics.flags.clean:
        raise ValueError("slow mode is only meaningful when assumption flags are clean")
    ell2 = dec.leading_left[1]
    scale = max(max_abs(ell2), 1e-300)
    defect = float(np.max(np.abs(ell2 - ell2.conj().T)))
    if defect > SLOW_MODE_HERM_TOL * scale:
        raise NotHermitianSlowMode(
            f"anti-Hermitian part of l_2 is {defect:.3e} "
            f"(> {SLOW_MODE_HERM_TOL:.0e} * max|l_2| = {SLOW_MODE_HERM_TOL * scale:.3e})"
        )
    return (ell2 + ell2.conj().T) / 2
