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

Left modes are rows of the (Newton-refined) inverse of the right eigenvector
matrix, so ``Tr(l_k r_h) = delta_kh`` holds to solver accuracy by
construction.  The few slowest modes, which carry all the downstream physics,
are additionally polished by shifted inverse iteration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

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
    biorthonormality_residual: float
    fixed_point_residual: float
    max_real_part: float
    stationary_min_eigenvalue: float
    tol_zero: float
    tol_imag: float
    tol_gap: float
    flags: AssumptionFlags


@dataclass(frozen=True)
class SpectralDecomposition:
    """Sorted eigenvalues with biorthonormalized left/right eigenmatrices.

    ``eigenvalues[k]`` pairs ``left_modes[k]`` with ``right_modes[k]`` under
    the trace pairing; ``left_modes[0]`` is the identity and
    ``right_modes[0]`` the trace-one stationary state.
    """

    eigenvalues: np.ndarray
    right_modes: np.ndarray
    left_modes: np.ndarray
    stationary_state: np.ndarray
    tau: float
    gap3: float
    diagnostics: Diagnostics

    @property
    def dim(self) -> int:
        return self.stationary_state.shape[0]

    def left_pairing_rows(self) -> np.ndarray:
        """Rows w_k with ``Tr(l_k X) = w_k . vec(X)`` (column-stacking)."""
        m = self.left_modes.shape[0]
        return self.left_modes.reshape(m, -1)

    def right_vectors(self) -> np.ndarray:
        """Columns ``vec(r_k)`` (column-stacking)."""
        m = self.right_modes.shape[0]
        return self.right_modes.transpose(0, 2, 1).reshape(m, -1).T


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


def _conjugate_partners(lam: np.ndarray, tol: float) -> np.ndarray:
    """partners[k] = index of the conjugate mode (k itself for real modes)."""
    m = lam.size
    partners = np.arange(m)
    used = np.zeros(m, dtype=bool)
    for k in range(m):
        if used[k] or lam[k].imag <= tol:
            continue
        dist = np.abs(lam - np.conj(lam[k]))
        dist[used] = np.inf
        dist[lam.imag > -tol] = np.inf
        j = int(np.argmin(dist))
        if np.isfinite(dist[j]):
            partners[k] = j
            partners[j] = k
            used[k] = used[j] = True
    return partners


def _blocks(lr: np.ndarray, basis: sp.csr_matrix) -> list[np.ndarray]:
    """Basis-row indices of the connected blocks of ``lr``, each ascending.

    Two rows are connected through a nonzero ``lr`` entry in either
    direction.  The symmetric and antisymmetric row of a pair i<j share their
    column-stacking support and are always one node of the graph, so
    different blocks have disjoint supports in the column-stacking frame.
    """
    m = lr.shape[0]
    node = basis.indices[basis.indptr[:-1]]  # first support position of each row
    r, c = np.nonzero(lr)
    graph = sp.csr_matrix((np.ones(r.size), (node[r], node[c])), shape=(m, m))
    _, labels = connected_components(graph, directed=True, connection="weak")
    labels = labels[node]
    return [np.flatnonzero(labels == b) for b in np.unique(labels)]


def _refine_pair(lr, lam_k, v, w, scale):
    """One-shift inverse iteration for the right and left vectors of lam_k."""
    n = lr.shape[0]
    shift = lam_k + _REFINE_SHIFT_JITTER * scale
    is_real = lam_k.imag == 0.0
    if is_real:
        shifted = lr - shift.real * np.eye(n)
        v = v.real.copy() if np.iscomplexobj(v) else v.copy()
        w = w.real.copy() if np.iscomplexobj(w) else w.copy()
    else:
        shifted = lr - shift * np.eye(n)
        v, w = v.copy(), w.copy()
    try:
        lu = sla.lu_factor(shifted)
        for _ in range(2):
            v = sla.lu_solve(lu, v)
            v /= np.linalg.norm(v)
        lu_t = sla.lu_factor(shifted.conj().T)
        wc = w.conj()
        for _ in range(2):
            wc = sla.lu_solve(lu_t, wc)
            wc /= np.linalg.norm(wc)
        w = wc.conj()
    except (sla.LinAlgError, ValueError):
        return None
    denom = w @ v
    if denom == 0:
        return None
    lam_new = (w @ (lr @ v)) / denom
    if is_real:
        lam_new = complex(lam_new.real)
        v, w = v.real + 0j, w.real + 0j
    return lam_new, v, w


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

    The generator is taken to the Hermitian operator basis by the sparse map
    of :func:`hermitian_operator_basis_rows`, where it is real; a generator
    that does not preserve Hermiticity raises ``NotHermitian``.  Each
    connected block of the real matrix (its nonzero pattern as a graph) gets
    its own eigensolve, packed inverse and slow-mode polish, and the modes of
    all blocks are merged into one sorted spectrum.  At N=40 the dicke
    generator splits into blocks of 841 and 840; the all-to-all generator is
    one block of 1681.

    Violated assumptions raise ``ComplexSlowMode`` or ``DegenerateSlowMode``
    with the finished decomposition attached.  A degenerate zero eigenvalue
    raises ``DegenerateStationaryState`` (there is no meaningful stationary
    normalization to return).  The ``REFINE_MODES`` leading modes are
    polished by shifted inverse iteration.
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
    mat_scale = max(max_abs(mat), 1e-300)
    if max_abs(lr.imag) > 1e-10 * mat_scale:
        raise NotHermitian(
            "generator is not Hermiticity-preserving: its matrix in a "
            "Hermitian operator basis has imaginary part "
            f"{max_abs(lr.imag):.3e}"
        )
    lr = np.ascontiguousarray(lr.real)

    # (basis rows, block of lr, sorted eigenvalues, eigenvectors) per block
    blocks = []
    for rows in _blocks(lr, basis):
        sub = lr[np.ix_(rows, rows)]
        try:
            lam_b, v_b = sla.eig(sub)
        except (sla.LinAlgError, ValueError) as exc:
            raise NoConvergence(f"generator eigensolver failed: {exc}") from exc
        order_b = _sort_order(lam_b)
        blocks.append((rows, sub, lam_b[order_b], np.asarray(v_b, dtype=complex)[:, order_b]))
    del lr

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

    # The real eigensolver delivers exactly conjugate column pairs (a +- ib).
    # Inverting the packed REAL matrix [.., a, b, ..] and recombining keeps
    # real modes exactly real and paired rows exactly conjugate, with no
    # structure enforcement that could break the pairing cancellations.
    # Partners are found within a block, so that an exact degeneracy across
    # blocks cannot pair vectors with different supports.
    partners = np.arange(m)
    v_packed = np.zeros((m, m), dtype=float)
    w_packed = np.zeros((m, m), dtype=float)
    norm_v = norm_w = 0.0
    for (rows, _, lam_b, v_b), pos in zip(blocks, modes):
        n_b = lam_b.size
        partners_b = _conjugate_partners(lam_b, tol=0.0)
        if np.any((lam_b.imag != 0) & (partners_b == np.arange(n_b))):
            raise NoConvergence("unpaired complex eigenvalue from the real eigensolver")
        packed_b = np.empty((n_b, n_b), dtype=float)
        for k in range(n_b):
            if lam_b[k].imag == 0.0:
                packed_b[:, k] = v_b[:, k].real
            elif lam_b[k].imag > 0:
                packed_b[:, k] = v_b[:, k].real
                packed_b[:, partners_b[k]] = v_b[:, k].imag
        inverse_b, _ = refined_inverse(packed_b)
        # the 1-norm of a block-diagonal matrix is the largest of its blocks'
        norm_v = max(norm_v, float(np.linalg.norm(packed_b, 1)))
        norm_w = max(norm_w, float(np.linalg.norm(inverse_b, 1)))
        v_packed[np.ix_(rows, pos)] = packed_b
        w_packed[np.ix_(pos, rows)] = inverse_b
        partners[pos] = pos[partners_b]
    cond = norm_v * norm_w
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"generator eigenbasis condition estimate {cond:.2e} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; pairing accuracy is limited",
            IllConditionedBasis,
            stacklevel=2,
        )
    vr = v_packed.astype(complex)
    wr = w_packed.astype(complex)
    for k in range(m):
        if lam[k].imag > 0:
            j = partners[k]
            lam[j] = np.conj(lam[k])
            a, b = v_packed[:, k], v_packed[:, j]
            vr[:, k] = a + 1j * b
            vr[:, j] = a - 1j * b
            wa, wb = w_packed[k, :], w_packed[j, :]
            wr[k, :] = (wa - 1j * wb) / 2
            wr[j, :] = (wa + 1j * wb) / 2

    # polish the slow modes: they carry all downstream physics
    sep_min = _REFINE_SEPARATION_FACTOR * scale
    for k in range(min(REFINE_MODES, m)):
        others = np.abs(lam - lam[k])
        others[k] = np.inf
        if partners[k] != k:
            others[partners[k]] = np.inf
        if k > 0 and np.min(others) <= sep_min:
            continue
        rows, sub = blocks[block_of[k]][:2]
        out = _refine_pair(sub, complex(lam[k]), vr[rows, k], wr[k, rows], scale)
        if out is None:
            continue
        lam_new, v_new, w_new = out
        lam[k] = lam_new
        vr[rows, k] = v_new
        wr[k, rows] = w_new
        if partners[k] != k:
            j = partners[k]
            lam[j] = np.conj(lam_new)
            vr[rows, j] = v_new.conj()
            wr[j, rows] = w_new.conj()

    # left mode of the zero eigenvalue is the identity, exactly
    wr[0, :] = basis.conj() @ vec(np.eye(d, dtype=complex))
    tr_r1 = wr[0, :] @ vr[:, 0]
    if abs(tr_r1) < 1e-14:
        raise NoConvergence("stationary candidate has numerically zero trace")
    vr[:, 0] = vr[:, 0] / tr_r1

    # pairing normalization Tr(l_k r_k) = 1, then balance the mode norms
    diag = np.einsum("ij,ji->i", wr[1:, :], vr[:, 1:])
    if np.any(diag == 0):
        raise NoConvergence("vanishing left/right pairing; basis unusable")
    wr[1:, :] = wr[1:, :] / diag[:, None]
    wnorm = np.linalg.norm(wr[1:, :], axis=1)
    vnorm = np.linalg.norm(vr[:, 1:], axis=0)
    bal = np.sqrt(vnorm / wnorm)
    wr[1:, :] = wr[1:, :] * bal[:, None]
    vr[:, 1:] = vr[:, 1:] / bal[None, :]

    # back to the column-stacking frame; l_k = unvec(w_k).T is the C-order
    # reshape of the pairing row, r_k the transposed C-order reshape of vec(r_k)
    v_cols = basis.T @ vr
    w_rows = np.ascontiguousarray(wr @ basis.conj())
    left_modes = w_rows.reshape(m, d, d)

    # deterministic per-mode phase: leading entry of l_k real positive
    # (sign-only for real modes, preserving exact Hermiticity)
    for k in range(1, m):
        if lam[k].imag < 0 and partners[k] != k:
            continue  # fixed through the conjugate partner
        ell = left_modes[k]
        idx = int(np.argmax(np.abs(ell)))
        val = ell.flat[idx]
        if val == 0:
            continue
        if lam[k].imag == 0.0:
            flip = val.real < 0 or (val.real == 0 and val.imag < 0)
            factor = -1.0 if flip else 1.0
        else:
            factor = np.conj(val) / abs(val)
        w_rows[k, :] *= factor
        v_cols[:, k] /= factor
        if partners[k] != k:
            j = partners[k]
            w_rows[j, :] *= np.conj(factor)
            v_cols[:, j] /= np.conj(factor)

    right_modes = np.ascontiguousarray(
        v_cols.T.reshape(m, d, d).transpose(0, 2, 1)
    )

    stationary = right_modes[0]
    stationary = (stationary + stationary.conj().T) / 2
    right_modes[0] = stationary
    min_eig = float(np.min(np.linalg.eigvalsh(stationary)))

    lam2, lam3 = lam[1], lam[2]
    tau = 1.0 / abs(lam2)
    gap3 = float(abs(lam3.real) - abs(lam2.real))
    flags = AssumptionFlags(
        stationary_unique=True,
        slow_mode_real=bool(abs(lam2.imag) <= tol_imag),
        slow_mode_unique=bool(gap3 >= tol_gap),
    )

    # max|Tr(l_k r_h) - delta_kh|: the blocks have disjoint column-stacking
    # supports, so every entry of the pairing outside the blocks is exactly 0
    biorth = 0.0
    for (rows, *_), pos in zip(blocks, modes):
        support = np.unique(basis[rows].indices)
        pairing = w_rows[np.ix_(pos, support)] @ v_cols[np.ix_(support, pos)]
        biorth = max(biorth, float(np.max(np.abs(pairing - np.eye(pos.size)))))
    fixed_point = float(np.max(np.abs(mat @ vec(stationary)))) / scale
    diagnostics = Diagnostics(
        condition_estimate=cond,
        biorthonormality_residual=biorth,
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
        right_modes=right_modes,
        left_modes=left_modes,
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
    ell2 = dec.left_modes[1]
    scale = max(max_abs(ell2), 1e-300)
    defect = float(np.max(np.abs(ell2 - ell2.conj().T)))
    if defect > SLOW_MODE_HERM_TOL * scale:
        raise NotHermitianSlowMode(
            f"anti-Hermitian part of l_2 is {defect:.3e} "
            f"(> {SLOW_MODE_HERM_TOL:.0e} * max|l_2| = {SLOW_MODE_HERM_TOL * scale:.3e})"
        )
    return (ell2 + ell2.conj().T) / 2


def conjugation_closure_residual(eigenvalues: np.ndarray, tol_imag: float) -> float:
    """max over complex eigenvalues of the distance to the nearest conjugate."""
    lam = np.asarray(eigenvalues)
    worst = 0.0
    for k in range(lam.size):
        if abs(lam[k].imag) <= tol_imag:
            continue
        worst = max(worst, float(np.min(np.abs(lam - np.conj(lam[k])))))
    return worst
