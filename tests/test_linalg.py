from __future__ import annotations

import numpy as np
import pytest

from qmpemba.errors import NotHermitian, ShapeMismatch
from qmpemba.linalg import as_matrix, hermitian_eig

RNG = np.random.default_rng(20240501)


def _random_complex(n, m=None):
    m = n if m is None else m
    return RNG.normal(size=(n, m)) + 1j * RNG.normal(size=(n, m))


class TestBasicOps:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.nan, 0], [0, 1]]))

    def test_non_matrix_rejected(self):
        with pytest.raises(ShapeMismatch):
            as_matrix(np.ones(4))


class TestHermitianEig:
    def test_pauli_x(self):
        eig = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])

    def test_identity(self):
        eig = hermitian_eig(np.eye(3))
        assert np.allclose(eig.eigenvalues, [1, 1, 1])
        v = eig.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-10

    def test_two_by_two(self):
        # det([[2-x, i], [-i, 2-x]]) = (2-x)^2 - 1, roots 1 and 3
        eig = hermitian_eig(np.array([[2, 1j], [-1j, 2]]))
        assert np.allclose(eig.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_ascending_and_reconstruction(self):
        for _ in range(10):
            a = _random_complex(6)
            a = (a + a.conj().T) / 2
            eig = hermitian_eig(a)
            assert np.all(np.diff(eig.eigenvalues) >= 0)
            rec = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
            assert np.max(np.abs(rec - a)) < 1e-10 * max(np.max(np.abs(a)), 1)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_square(self):
        with pytest.raises(ShapeMismatch):
            hermitian_eig(np.ones((2, 3)))

