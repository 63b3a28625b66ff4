"""Dense linear algebra with explicit accuracy contracts.

Matrices are ``numpy.ndarray`` in row-major (C) element order; this storage
order is fixed package-wide.  Two LAPACK-backed routines live here, both on
numpy's LAPACK so that one OpenBLAS thread pool serves the whole process
(``spectral`` calls numpy's ``dgeev`` itself, concurrently per block): a
Hermitian eigensolver for complex matrices, whose result is residual-checked
before it is returned, and the inverse of the real packed eigenvector
matrix, from whose rows the left modes are taken so that the pairing
``W @ V = 1`` holds to solver accuracy.  The inverse is the transposed solve
``V^T W^T = I``, which makes every row of W a backward-stable left-inverse
row; its Newton loop stops after the first residual, so it refines nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, ShapeMismatch

HERMITIAN_EIG_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a complex matrix.

    Requires a 2-d array with at least one row and one column and all entries
    finite.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains non-finite entries")
    return m


def max_abs(a) -> float:
    """Largest entry modulus; zero for an all-zero matrix."""
    return float(np.max(np.abs(a)))


def hermiticity_defect(a) -> float:
    """Largest modulus of the entries of ``a - a^H``, an absolute measure; callers scale it."""
    a = as_matrix(a)
    return float(np.max(np.abs(a - a.conj().T)))


@dataclass(frozen=True)
class HermitianEig:
    """Eigenvalues (real, ascending) and unitary column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(a) -> HermitianEig:
    """Diagonalize a Hermitian matrix.

    Raises
    ------
    NotHermitian
        If ``max|a - a†| > 1e-10 * max|a|``.
    NoConvergence
        If LAPACK fails or the reconstruction residual violates the contract.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ShapeMismatch(f"eigendecomposition of non-square matrix {a.shape}")
    scale_a = max_abs(a)
    if hermiticity_defect(a) > HERMITIAN_EIG_TOL * max(scale_a, 1e-300):
        raise NotHermitian(
            f"anti-Hermitian part {hermiticity_defect(a):.3e} exceeds "
            f"{HERMITIAN_EIG_TOL:.0e} * max|a| = {HERMITIAN_EIG_TOL * scale_a:.3e}"
        )
    try:
        w, v = np.linalg.eigh((a + a.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver failed: {exc}") from exc
    resid = float(np.max(np.abs(a @ v - v * w[None, :])))
    unit = float(np.max(np.abs(v.conj().T @ v - np.eye(n))))
    if resid > HERMITIAN_EIG_TOL * max(scale_a, 1e-300) or unit > HERMITIAN_EIG_TOL:
        raise NoConvergence(
            f"Hermitian eigendecomposition out of contract: "
            f"residual={resid:.3e}, unitarity defect={unit:.3e}"
        )
    return HermitianEig(eigenvalues=w, eigenvectors=v)


def refined_inverse(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse of ``v`` and its residual ``max|1 - W V|``; no Newton step is taken.

    The start is ``np.linalg.inv(v.T).T``: LU with partial pivoting solves
    ``V^T W^T = I`` column by column, so each row ``w_i`` of W is the exact
    solution of ``w_i (V + E_i) = e_i`` with a small ``E_i``, a
    backward-stable left-inverse row, and ``max|1 - W V|`` stays near eps
    times the condition number.  The plain ``np.linalg.inv(v)`` makes the
    columns backward stable instead, which bounds ``V W - 1`` but not
    ``1 - W V``: on an ill-conditioned eigenvector matrix the left pairing
    it gives is orders of magnitude worse.  The loop below was meant to
    iterate ``W <- W + (1 - W V) W`` while the measured residual halves, but
    its stop test compares the first residual with itself, so it returns
    the start and that residual after one residual product.
    """
    n = v.shape[0]
    try:
        w = np.linalg.inv(v.T).T
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvector matrix numerically singular: {exc}") from exc
    best_w, best_r = w, np.inf
    for _ in range(6):
        e = w @ v
        e.flat[:: n + 1] -= 1  # W V - 1, exactly -(1 - W V), with no identity formed
        r = float(max(e.max(), -e.min()))
        if r < best_r:
            best_w, best_r = w, r
        if r >= best_r * 0.5:
            break
        w = w - e @ w
    return best_w, best_r

