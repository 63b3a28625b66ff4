"""Construction of the overlap-removing initial unitary.

Given the Hermitian slow left mode and a pure initial state, builds the
unitary ``U = U2 @ U1`` that makes the rotated state trace-orthogonal to the
slow mode: ``U1`` maps the state onto the slow mode's leading eigenvector, and
``U2`` is either a two-level rotation by the closing angle (generic case) or a
basis transposition onto a null eigenvector (zero-eigenvalue case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    NoOppositeSign,
    NotNormalized,
    NoZeroEigenvalue,
    SameSign,
    ShapeMismatch,
    ZeroBranch,
)
from .linalg import hermitian_eig
from .spectral import SpectralDecomposition

TOL_ALPHA_FACTOR = 1e-10

ROTATION = "rotation"
PERMUTATION = "permutation"


@dataclass(frozen=True)
class SlowModeSpectrum:
    """Eigensystem of the Hermitian slow mode with the two selected levels.

    ``alphas`` are sorted descending with ``phis`` the matching orthonormal
    column eigenvectors.  ``index_1`` points at the largest-modulus eigenvalue
    (ties resolved toward the positive one); ``index_n`` at the rotation
    partner: the largest-modulus eigenvalue of opposite sign, or the
    near-zero eigenvalue when the zero branch is taken.
    """

    alphas: np.ndarray
    phis: np.ndarray
    index_1: int
    index_n: int
    zero_branch: bool
    tol_alpha: float

    @property
    def alpha_1(self) -> float:
        return float(self.alphas[self.index_1])

    @property
    def alpha_n(self) -> float:
        return float(self.alphas[self.index_n])


@dataclass(frozen=True)
class MpembaRotation:
    """The assembled unitary with its ingredients and achieved residual."""

    u1: np.ndarray
    u2: np.ndarray
    unitary: np.ndarray
    branch: str
    s_bar: Optional[float]
    residual_overlap: float
    initial_overlap: float
    slow_spectrum: SlowModeSpectrum


def slow_mode_spectrum(ell2) -> SlowModeSpectrum:
    """Diagonalize the Hermitian slow mode and select the working levels.

    The eigenvalue set of a valid slow mode is trace-orthogonal to a positive
    matrix, so it must contain two opposite signs or a zero; if neither is
    found the input is corrupt and ``NoOppositeSign`` is raised.
    """
    eig = hermitian_eig(ell2)
    alphas = eig.eigenvalues[::-1].copy()
    phis = eig.eigenvectors[:, ::-1].copy()
    mods = np.abs(alphas)
    tol_alpha = TOL_ALPHA_FACTOR * float(np.max(mods))
    # alphas descend, so the first largest modulus is the positive one of a tie
    index_1 = int(np.argmax(mods))
    sign_1 = np.sign(alphas[index_1])
    opposite = np.flatnonzero((np.sign(alphas) == -sign_1) & (mods > tol_alpha))
    near_zero = np.flatnonzero(mods <= tol_alpha)
    if opposite.size:
        index_n = int(opposite[np.argmax(mods[opposite])])
        zero_branch = False
    elif near_zero.size:
        index_n = int(near_zero[np.argmin(mods[near_zero])])
        zero_branch = True
    else:
        raise NoOppositeSign(
            "all eigenvalues of the slow mode share one strict sign; "
            "a valid slow mode cannot be sign-definite"
        )
    return SlowModeSpectrum(
        alphas=alphas,
        phis=phis,
        index_1=index_1,
        index_n=index_n,
        zero_branch=zero_branch,
        tol_alpha=tol_alpha,
    )


def _check_state(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ShapeMismatch(f"state must be a vector, got shape {psi.shape}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
        raise NotNormalized(f"state norm {np.linalg.norm(psi):.15g} is not 1")
    return psi


def build_u1(psi, phi) -> np.ndarray:
    """Unitary sending the state ``psi`` to the unit target vector ``phi``.

    A phase times one Householder reflection: with ``e^{ia}`` the phase of
    ``<phi, psi>`` (1 when the two are orthogonal) and ``w = psi + e^{ia} phi``,
    ``U1 = -e^{-ia} (1 - 2 w w^dagger / |w|^2)``.  Since
    ``|w|^2 = 2 + 2 |<phi, psi>| >= 2`` no input is degenerate.
    """
    psi = _check_state(psi)
    phi = _check_state(phi)
    if phi.shape != psi.shape:
        raise ShapeMismatch(f"target length {phi.size} does not match state length {psi.size}")
    overlap = np.vdot(phi, psi)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    w = psi + phase * phi
    reflection = np.eye(psi.size, dtype=complex)
    reflection -= np.outer(w, (2.0 / np.vdot(w, w).real) * w.conj())
    return -np.conj(phase) * reflection


def rotation_angle(alpha_1: float, alpha_n: float) -> float:
    """Angle closing the two-level overlap: arctan(sqrt(|alpha_1/alpha_n|))."""
    if alpha_1 * alpha_n >= 0:
        raise SameSign(
            f"rotation angle requires opposite signs, got {alpha_1:.6g} and {alpha_n:.6g}"
        )
    return float(np.arctan(np.sqrt(abs(alpha_1 / alpha_n))))


def build_rotation(levels: SlowModeSpectrum, s: float) -> np.ndarray:
    """Two-level rotation ``1 + (cos s - 1) F^2 - i sin(s) F`` (unitary, U(0)=1)."""
    if levels.zero_branch:
        raise ZeroBranch(
            "rotation undefined on the zero branch; use build_permutation"
        )
    p1 = levels.phis[:, levels.index_1]
    pn = levels.phis[:, levels.index_n]
    f = np.outer(p1, pn.conj()) + np.outer(pn, p1.conj())
    f2 = np.outer(p1, p1.conj()) + np.outer(pn, pn.conj())
    d = p1.size
    s = float(s)
    return np.eye(d, dtype=complex) + (np.cos(s) - 1.0) * f2 - 1j * np.sin(s) * f


def build_permutation(levels: SlowModeSpectrum) -> np.ndarray:
    """Transposition of phi_1 with the null eigenvector, identity elsewhere."""
    if not levels.zero_branch:
        raise NoZeroEigenvalue(
            "permutation branch requires a near-zero eigenvalue of the slow mode"
        )
    p1 = levels.phis[:, levels.index_1]
    ph = levels.phis[:, levels.index_n]
    d = p1.size
    u = np.eye(d, dtype=complex)
    u -= np.outer(p1, p1.conj()) + np.outer(ph, ph.conj())
    u += np.outer(ph, p1.conj()) + np.outer(p1, ph.conj())
    return u


def _expectation(ell2: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v^dagger l2 v`` for a vector v, or for each row of a stack of them."""
    return np.sum(v.conj() * (v @ ell2.T), axis=-1)


def _prepare(dec: SpectralDecomposition, psi):
    """The checked state, the Hermitian slow mode and its levels (``dec.slow_mode``) and ``U1``."""
    psi = _check_state(psi)
    ell2, levels = dec.slow_mode
    return psi, ell2, levels, build_u1(psi, levels.phis[:, levels.index_1])


def optimal_unitary(dec: SpectralDecomposition, psi) -> MpembaRotation:
    """Compose the full slow-mode-removing unitary for a pure initial state.

    Uses the rotation branch whenever opposite-sign eigenvalues exist (it
    zeroes the overlap exactly in exact arithmetic); the permutation branch,
    which leaves a residual bounded by the zero tolerance, only otherwise.
    """
    psi, ell2, levels, u1 = _prepare(dec, psi)
    if levels.zero_branch:
        u2 = build_permutation(levels)
        s_bar = None
        branch = PERMUTATION
    else:
        s_bar = rotation_angle(levels.alpha_1, levels.alpha_n)
        u2 = build_rotation(levels, s_bar)
        branch = ROTATION

    unitary = u2 @ u1
    return MpembaRotation(
        u1=u1,
        u2=u2,
        unitary=unitary,
        branch=branch,
        s_bar=s_bar,
        residual_overlap=float(abs(_expectation(ell2, unitary @ psi))),
        initial_overlap=float(np.real(np.vdot(psi, ell2 @ psi))),
        slow_spectrum=levels,
    )


def overlap_scan(dec: SpectralDecomposition, psi, s_grid) -> list[tuple[float, float]]:
    """Slow-mode overlap of the rotated state at each angle of ``s_grid``.

    The scan rotates the state vector itself and builds no matrix per angle:
    with ``x = U1 psi`` the rotated vector is ``v(s) = x + (cos s - 1) F^2 x
    - i sin(s) F x``, formed for every angle from the two vectors ``F^2 x``
    and ``F x``, and the overlap is ``v(s)^dagger l2 v(s)``; no density matrix
    is formed.  It equals ``alpha_1 cos^2(s) + alpha_n sin^2(s)`` pointwise,
    with the endpoints reproducing the two selected eigenvalues.
    """
    psi, ell2, levels, u1 = _prepare(dec, psi)
    if levels.zero_branch:
        raise ZeroBranch("overlap scan requires an opposite-sign partner level")
    p1 = levels.phis[:, levels.index_1]
    pn = levels.phis[:, levels.index_n]
    x = u1 @ psi
    c1, cn = np.vdot(p1, x), np.vdot(pn, x)
    fx = p1 * cn + pn * c1
    f2x = p1 * c1 + pn * cn
    angles = np.asarray(s_grid, dtype=float)
    v = x + np.outer(np.cos(angles) - 1.0, f2x) - 1j * np.outer(np.sin(angles), fx)
    values = _expectation(ell2, v).real
    return [(float(s), float(val)) for s, val in zip(angles, values)]
