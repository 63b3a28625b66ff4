from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import (
    ALL_TO_ALL_REF,
    DICKE_REF,
    qubit_decay_model,
    random_density,
    random_lindblad_model,
)

from qmpemba import (
    all_to_all_model,
    build_liouvillian,
    decompose,
    dicke_model,
    hermitize_slow_mode,
)
from qmpemba import spectral
from qmpemba.errors import (
    AssumptionViolation,
    DegenerateSlowMode,
    DegenerateStationaryState,
    IllConditionedBasis,
    NotHermitian,
    NotHermitianSlowMode,
)
from qmpemba.spectral import (
    CONDITION_WARN_THRESHOLD,
    conjugation_closure_residual,
    hermitian_operator_basis_rows,
)
from qmpemba.superop import LindbladModel, Superoperator, unvec, vec

RNG = np.random.default_rng(20240503)

# sorted slow eigenvalues of the two reference models at N=20; frozen from
# this build and pinned as regression guards (relative 1e-6)
REFERENCE_N20 = {
    "dicke": (-0.019039563635063296, -0.059887937598561834),
    "all-to-all": (-0.057511342263680536, complex(-0.2847421292911313, 1.6362027559587713)),
}


def _dense_basis_reference(d: int) -> np.ndarray:
    """The basis rows written out in the documented order."""
    rows = np.zeros((d * d, d * d), dtype=complex)
    s2 = 1.0 / np.sqrt(2.0)
    r = 0
    for i in range(d):
        rows[r, i + i * d] = 1.0
        r += 1
    for i in range(d):
        for j in range(i + 1, d):
            rows[r, i + j * d] = s2
            rows[r, j + i * d] = s2
            r += 1
            rows[r, i + j * d] = -1j * s2
            rows[r, j + i * d] = 1j * s2
            r += 1
    return rows


class TestHermitianBasis:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_documented_order(self, d):
        basis = hermitian_operator_basis_rows(d)
        assert sp.issparse(basis) and basis.format == "csr"
        assert basis.shape == (d * d, d * d)
        assert np.max(np.diff(basis.indptr)) <= 2
        assert np.array_equal(basis.toarray(), _dense_basis_reference(d))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_orthonormal_hermitian_rows(self, d):
        basis = hermitian_operator_basis_rows(d)
        gram = (basis @ basis.conj().T).toarray()
        assert np.max(np.abs(gram - np.eye(d * d))) <= 1e-15
        for row in basis.toarray():
            op = unvec(row)
            assert np.array_equal(op, op.conj().T)


class TestNotHermiticityPreserving:
    def test_raises_not_hermitian(self):
        sup = Superoperator(matrix=1j * np.eye(4), kind="generator")
        with pytest.raises(NotHermitian):
            decompose(sup)


class TestBlocks:
    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        planted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_reproduce_the_dense_spectrum(self, d, n_jumps, planted, seed):
        rng = np.random.default_rng(seed)
        sup = build_liouvillian(random_lindblad_model(d, n_jumps, rng, planted))
        m = d * d
        reference = sla.eigvals(sup.matrix)

        sizes = []
        eig = spectral.sla.eig

        def recording_eig(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eig(a, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral.sla, "eig", recording_eig)
            try:
                dec = decompose(sup)
                lam = dec.eigenvalues
            except AssumptionViolation as exc:
                dec = exc.decomposition
                lam = dec.eigenvalues if dec is not None else exc.eigenvalues

        assert sum(sizes) == m
        if planted:
            assert len(sizes) > 1
        else:
            assert sizes == [m]

        # the two spectra as multisets: optimal one-to-one matching
        dist = np.abs(lam[:, None] - reference[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert np.max(dist[rows, cols]) <= 1e-8 * np.max(np.abs(reference))

        if dec is None:
            return
        assert dec.diagnostics.biorthonormality_residual <= 1e-8
        # off-block entries of the full pairing are exact zeros
        full = dec.left_pairing_rows() @ dec.right_vectors()
        assert np.max(np.abs(full - np.eye(m))) == pytest.approx(
            dec.diagnostics.biorthonormality_residual, rel=1e-6, abs=1e-14
        )
        assert np.array_equal(dec.left_modes[0], np.eye(d))
        assert abs(np.trace(dec.stationary_state) - 1) < 1e-12


class TestQubitDecay:
    def test_degenerate_slow_mode_raised(self):
        sup = build_liouvillian(qubit_decay_model())
        with pytest.raises(DegenerateSlowMode):
            decompose(sup)

    def test_non_strict_decomposition(self):
        sup = build_liouvillian(qubit_decay_model())
        with pytest.raises(DegenerateSlowMode) as err:
            decompose(sup)
        dec = err.value.decomposition
        assert np.allclose(dec.eigenvalues, [0, -0.5, -0.5, -1], atol=1e-10)
        assert np.allclose(dec.stationary_state, np.diag([1.0, 0.0]), atol=1e-12)
        assert not dec.diagnostics.flags.slow_mode_unique
        assert dec.diagnostics.flags.stationary_unique

    def test_attached_decomposition_on_error(self):
        sup = build_liouvillian(qubit_decay_model())
        with pytest.raises(DegenerateSlowMode) as err:
            decompose(sup)
        assert err.value.decomposition is not None
        assert err.value.decomposition.eigenvalues.size == 4


class TestDegenerateStationary:
    def test_two_dark_states(self):
        # |0><1| leaves both |0> and |2> dark on a three-level system
        jump = np.zeros((3, 3), dtype=complex)
        jump[0, 1] = 1.0
        model = LindbladModel(hamiltonian=np.zeros((3, 3)), jumps=(jump,))
        with pytest.raises(DegenerateStationaryState) as err:
            decompose(build_liouvillian(model))
        assert err.value.eigenvalues is not None


class TestStructure:
    @pytest.mark.parametrize("name", ["dicke", "all-to-all"])
    def test_mode_structure(self, name, both_models6):
        model, dec = both_models6[name]
        m = dec.eigenvalues.size
        d = dec.dim

        # identity left mode paired with a trace-one stationary state
        assert np.array_equal(dec.left_modes[0], np.eye(d))
        assert abs(np.trace(dec.stationary_state) - 1) < 1e-12

        # ordering by |Re|, biorthonormality, and conjugate closure
        re = np.abs(dec.eigenvalues.real)
        assert np.all(np.diff(re) >= -1e-12)
        assert dec.diagnostics.biorthonormality_residual <= 1e-8
        tol = dec.diagnostics.tol_imag
        assert conjugation_closure_residual(dec.eigenvalues, tol) <= 1e-8 * np.max(np.abs(dec.eigenvalues))

        # all decay rates non-negative up to tolerance, exactly one zero
        scale = np.max(np.abs(dec.eigenvalues))
        assert dec.diagnostics.max_real_part <= 1e-9 * scale
        assert np.sum(np.abs(dec.eigenvalues) <= dec.diagnostics.tol_zero) == 1

        # stationary state is a positive fixed point
        assert dec.diagnostics.stationary_min_eigenvalue >= -1e-10
        assert dec.diagnostics.fixed_point_residual <= 1e-9

        # real simple eigenvalues carry Hermitian modes
        for k in range(m):
            lam = dec.eigenvalues[k]
            if lam.imag != 0:
                continue
            others = np.abs(dec.eigenvalues - lam)
            others[k] = np.inf
            if np.min(others) < 1e-8 * scale:
                continue
            r = dec.right_modes[k]
            ell = dec.left_modes[k]
            norm = max(np.max(np.abs(r)), 1e-300)
            assert np.max(np.abs(r - r.conj().T)) <= 1e-7 * norm
            assert np.max(np.abs(ell - ell.conj().T)) <= 1e-7 * np.max(np.abs(ell))

    @pytest.mark.parametrize("name", ["dicke", "all-to-all"])
    def test_reference_slow_eigenvalues_n20(self, name):
        if name == "dicke":
            model = dicke_model(DICKE_REF, 20)
        else:
            model = all_to_all_model(ALL_TO_ALL_REF, 20)
        dec = decompose(build_liouvillian(model))
        lam2_ref, lam3_ref = REFERENCE_N20[name]
        assert dec.eigenvalues[1] == pytest.approx(lam2_ref, rel=1e-6)
        assert dec.eigenvalues[2] == pytest.approx(lam3_ref, rel=1e-6)
        assert dec.diagnostics.flags.clean
        assert np.isfinite(dec.tau) and dec.tau > 0
        assert dec.eigenvalues[1].imag == 0.0

    def test_ill_conditioned_basis_warns(self):
        # all-to-all at N=28 has a basis condition estimate of about 4e11
        model = all_to_all_model(ALL_TO_ALL_REF, 28)
        with pytest.warns(IllConditionedBasis):
            dec = decompose(build_liouvillian(model))
        assert dec.diagnostics.condition_estimate > CONDITION_WARN_THRESHOLD


class TestHermitizeSlowMode:
    def test_clean_input_unchanged(self, dicke6):
        _, dec = dicke6
        ell2 = hermitize_slow_mode(dec)
        assert np.max(np.abs(ell2 - dec.left_modes[1])) < 1e-12
        assert np.array_equal(ell2, ell2.conj().T)

    def _doctored(self, dec, eps):
        left = dec.left_modes.copy()
        bump = np.zeros_like(left[1])
        bump[0, -1] = eps * np.max(np.abs(left[1]))
        left[1] = left[1] + (bump - bump.conj().T) / 2
        return dataclasses.replace(dec, left_modes=left)

    def test_small_defect_symmetrized(self, dicke6):
        _, dec = dicke6
        ell2 = hermitize_slow_mode(self._doctored(dec, 1e-9))
        assert np.max(np.abs(ell2 - ell2.conj().T)) == 0.0

    def test_large_defect_rejected(self, dicke6):
        _, dec = dicke6
        with pytest.raises(NotHermitianSlowMode):
            hermitize_slow_mode(self._doctored(dec, 1e-3))


class TestModeOverlaps:
    def test_stationary_excites_nothing(self, dicke6):
        _, dec = dicke6
        c = dec.left_pairing_rows() @ vec(dec.stationary_state)
        assert abs(c[0] - 1) < 1e-8
        assert np.max(np.abs(c[1:])) < 1e-8

    def test_normalization_component(self, dicke6):
        _, dec = dicke6
        rho = random_density(dec.dim, RNG)
        c = dec.left_pairing_rows() @ vec(rho)
        assert abs(c[0] - 1) < 1e-10

    def test_reconstruction(self, dicke6):
        _, dec = dicke6
        rho = random_density(dec.dim, RNG)
        c = dec.left_pairing_rows() @ vec(rho)
        rec = np.tensordot(c, dec.right_modes, axes=(0, 0))
        assert np.max(np.abs(rec - rho)) < 1e-8


class TestOverlapDecayLaw:
    def test_single_mode_decay(self, all_to_all6):
        from qmpemba import evolve_spectral

        _, dec = all_to_all6
        rho0 = random_density(dec.dim, RNG)
        c0 = dec.left_pairing_rows() @ vec(rho0)
        for t in (0.3, 1.1):
            rho_t = evolve_spectral(dec, rho0, t)
            rho_t = rho_t / np.trace(rho_t).real
            c_t = dec.left_pairing_rows() @ vec(rho_t)
            for k in range(1, 6):
                expected = np.exp(t * dec.eigenvalues[k]) * c0[k]
                assert abs(c_t[k] - expected) < 1e-8 * max(1, abs(c0[k]))
