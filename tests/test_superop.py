from __future__ import annotations

import numpy as np
import pytest

from conftest import qubit_decay_model, random_hermitian

from qmpemba.errors import NotHermitian, ShapeMismatch
from qmpemba.superop import (
    LindbladModel,
    build_adjoint_liouvillian,
    build_liouvillian,
    unvec,
    vec,
)

RNG = np.random.default_rng(20240502)


def lindblad_action(h, jumps, x):
    """Independent evaluation of the master-equation right-hand side."""
    out = -1j * (h @ x - x @ h)
    for l_op in jumps:
        ld = l_op.conj().T
        out += l_op @ x @ ld - 0.5 * (ld @ l_op @ x + x @ ld @ l_op)
    return out


def _random(d):
    return RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))


class TestVec:
    def test_column_stacking_order(self):
        v = vec(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(v, np.array([1, 3, 2, 4], dtype=complex))

    def test_round_trip(self):
        x = _random(3)
        assert np.array_equal(unvec(vec(x)), x)

    def test_vectorization_identity(self):
        for _ in range(10):
            a, x, b = _random(2), _random(2), _random(2)
            lhs = vec(a @ x @ b)
            rhs = np.kron(b.T, a) @ vec(x)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_bad_lengths(self):
        with pytest.raises(ShapeMismatch):
            vec(np.ones((2, 3)))
        with pytest.raises(ShapeMismatch):
            unvec(np.ones(5))


class TestLindbladModel:
    def test_non_hermitian_hamiltonian(self):
        with pytest.raises(NotHermitian):
            LindbladModel(hamiltonian=np.array([[0, 1], [0, 0]]), jumps=())

    def test_jump_shape(self):
        with pytest.raises(ShapeMismatch):
            LindbladModel(hamiltonian=np.eye(2), jumps=(np.eye(3),))

    def test_dim(self):
        assert qubit_decay_model().dim == 2


class TestLiouvillian:
    def test_decay_of_excited_state(self):
        # the excited population moves to the ground state at rate kappa
        kappa = 1.0
        sup = build_liouvillian(qubit_decay_model(kappa))
        rho = np.array([[0, 0], [0, 1]], dtype=complex)
        expected = kappa * np.array([[1, 0], [0, -1]], dtype=complex)
        assert np.max(np.abs(sup.apply(rho) - expected)) < 1e-14

    def test_maximally_mixed_is_fixed_without_jumps(self):
        h = random_hermitian(4, RNG)
        sup = build_liouvillian(LindbladModel(hamiltonian=h, jumps=()))
        rho = np.eye(4, dtype=complex) / 4
        assert np.max(np.abs(sup.apply(rho))) < 1e-12

    def test_matches_direct_action(self):
        model = qubit_decay_model(0.7)
        h = random_hermitian(2, RNG)
        model = LindbladModel(hamiltonian=h, jumps=model.jumps)
        sup = build_liouvillian(model)
        for _ in range(10):
            x = _random(2)
            direct = lindblad_action(model.hamiltonian, model.jumps, x)
            assert np.max(np.abs(sup.apply(x) - direct)) < 1e-12

    def test_trace_preservation(self):
        model = qubit_decay_model(1.3)
        sup = build_liouvillian(model)
        for _ in range(50):
            x = random_hermitian(2, RNG)
            assert abs(np.trace(sup.apply(x))) < 1e-10 * max(np.max(np.abs(x)), 1)

    def test_hermiticity_preservation(self):
        h = random_hermitian(3, RNG)
        jump = _random(3)
        sup = build_liouvillian(LindbladModel(hamiltonian=h, jumps=(jump,)))
        for _ in range(50):
            x = _random(3)
            lhs = sup.apply(x).conj().T
            rhs = sup.apply(x.conj().T)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_amplitude_damping_spectrum(self):
        kappa = 2.3
        sup = build_liouvillian(qubit_decay_model(kappa))
        lam = np.sort(np.linalg.eigvals(sup.matrix.toarray()).real)
        assert np.allclose(lam, [-kappa, -kappa / 2, -kappa / 2, 0], atol=1e-10)


class TestAdjoint:
    def test_identity_is_fixed(self):
        h = random_hermitian(4, RNG)
        jump = _random(4)
        sup = build_adjoint_liouvillian(LindbladModel(hamiltonian=h, jumps=(jump,)))
        assert np.max(np.abs(sup.apply(np.eye(4)))) < 1e-12

    def test_excited_projector(self):
        # observables decay: the excited-state projector damps at rate kappa
        kappa = 1.0
        sup = build_adjoint_liouvillian(qubit_decay_model(kappa))
        proj = np.array([[0, 0], [0, 1]], dtype=complex)
        assert np.max(np.abs(sup.apply(proj) + kappa * proj)) < 1e-14

    def test_duality_pairing(self):
        model = LindbladModel(hamiltonian=random_hermitian(3, RNG), jumps=(_random(3),))
        gen = build_liouvillian(model)
        adj = build_adjoint_liouvillian(model)
        for _ in range(50):
            o, rho = _random(3), _random(3)
            lhs = np.trace(adj.apply(o) @ rho)
            rhs = np.trace(o @ gen.apply(rho))
            assert abs(lhs - rhs) < 1e-10 * max(1, abs(lhs))

    def test_matrix_is_conjugate_transpose_of_generator(self):
        model = LindbladModel(hamiltonian=random_hermitian(4, RNG), jumps=(_random(4), _random(4)))
        gen = build_liouvillian(model)
        adj = build_adjoint_liouvillian(model)
        assert np.max(np.abs(adj.matrix - gen.matrix.conj().T)) < 1e-12
