"""Lindblad generator and its adjoint as sparse CSR matrices on vectorized operators.

Vectorization is column-stacking, fixed package-wide: component ``i + j*d`` of
``vec(X)`` equals ``X[i, j]``, so ``vec(A @ X @ B) = (B.T ⊗ A) @ vec(X)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NotHermitian, ShapeMismatch
from .linalg import as_matrix, hermiticity_defect, max_abs

VEC_CONVENTION = "column-stacking"

HAMILTONIAN_HERM_TOL = 1e-12


def vec(x) -> np.ndarray:
    """Column-stack a square matrix into a length d**2 vector."""
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise ShapeMismatch(f"vec of non-square matrix {x.shape}")
    return x.flatten(order="F")


def unvec(v) -> np.ndarray:
    """Inverse of :func:`vec`; the length must be a perfect square."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ShapeMismatch(f"unvec expects a vector, got shape {v.shape}")
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ShapeMismatch(f"vector length {v.size} is not a perfect square")
    return v.reshape((d, d), order="F")


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus jump operators on a d-dimensional Hilbert space.

    Rates are absorbed into the jump operators (each carries its square-root
    rate); there is no separate rate field.
    """

    hamiltonian: np.ndarray
    jumps: tuple
    label: str = ""

    def __post_init__(self):
        h = as_matrix(self.hamiltonian)
        d = h.shape[0]
        if h.shape[1] != d:
            raise ShapeMismatch(f"Hamiltonian must be square, got {h.shape}")
        if hermiticity_defect(h) > HAMILTONIAN_HERM_TOL * max(max_abs(h), 1e-300):
            raise NotHermitian(
                f"Hamiltonian anti-Hermitian part {hermiticity_defect(h):.3e} "
                f"exceeds {HAMILTONIAN_HERM_TOL:.0e} * max|H|"
            )
        jumps = tuple(as_matrix(j) for j in self.jumps)
        for j in jumps:
            if j.shape != (d, d):
                raise ShapeMismatch(
                    f"jump operator shape {j.shape} does not match dimension {d}"
                )
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", jumps)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class Superoperator:
    """Sparse d**2 x d**2 matrix acting on column-stacked operators.

    The matrix is always stored as ``scipy.sparse.csr_matrix``; any other
    input is converted on construction.
    """

    matrix: sp.csr_matrix
    kind: str  # "generator" | "adjoint-generator"

    def __post_init__(self):
        object.__setattr__(self, "matrix", sp.csr_matrix(self.matrix))

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))

    def apply(self, x) -> np.ndarray:
        """Apply the superoperator to a d x d matrix."""
        x = as_matrix(x)
        if x.shape != (self.dim, self.dim):
            raise ShapeMismatch(
                f"operand shape {x.shape} does not match dimension {self.dim}"
            )
        return unvec(self.matrix @ vec(x))


def build_liouvillian(model: LindbladModel) -> Superoperator:
    """Assemble the generator of the quantum master equation as a CSR matrix.

    In the column-stacking convention::

        L = -i[(1 ⊗ H) - (H.T ⊗ 1)]
            + sum_mu [ (conj(L_mu) ⊗ L_mu)
                       - 1/2 (1 ⊗ L_mu† L_mu) - 1/2 ((L_mu† L_mu).T ⊗ 1) ]

    so that ``unvec(L @ vec(rho))`` equals ``-i[H, rho] + sum_mu (L_mu rho
    L_mu† - {L_mu† L_mu, rho}/2)``.
    """
    h = model.hamiltonian
    d = model.dim
    eye = sp.identity(d, dtype=complex, format="csr")
    mat = -1j * (sp.kron(eye, h) - sp.kron(h.T, eye))
    for l_op in model.jumps:
        ldl = l_op.conj().T @ l_op
        mat += (
            sp.kron(l_op.conj(), l_op)
            - 0.5 * sp.kron(eye, ldl)
            - 0.5 * sp.kron(ldl.T, eye)
        )
    return Superoperator(matrix=mat, kind="generator")


def build_adjoint_liouvillian(model: LindbladModel) -> Superoperator:
    """Assemble the adjoint (Heisenberg-picture) generator.

    Implements ``O -> i[H, O] + sum_mu (L_mu† O L_mu - {O, L_mu† L_mu}/2)``;
    under the Hilbert-Schmidt pairing this matrix is the conjugate transpose
    of the generator matrix.
    """
    h = model.hamiltonian
    d = model.dim
    eye = sp.identity(d, dtype=complex, format="csr")
    mat = 1j * (sp.kron(eye, h) - sp.kron(h.T, eye))
    for l_op in model.jumps:
        ldl = l_op.conj().T @ l_op
        mat += (
            sp.kron(l_op.T, l_op.conj().T)
            - 0.5 * sp.kron(eye, ldl)
            - 0.5 * sp.kron(ldl.T, eye)
        )
    return Superoperator(matrix=mat, kind="adjoint-generator")
