from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import DICKE_REF, random_density, random_lindblad_model

from qmpemba import (
    build_liouvillian,
    build_permutation,
    build_rotation,
    build_u1,
    decompose,
    dicke_model,
    hermitize_slow_mode,
    optimal_unitary,
    overlap_scan,
    random_pure_state,
    rotation_angle,
    slow_mode_spectrum,
)
from qmpemba import mpemba
from qmpemba.cli import main
from qmpemba.errors import (
    AssumptionViolation,
    NoOppositeSign,
    NotHermitianSlowMode,
    NotNormalized,
    NoZeroEigenvalue,
    SameSign,
    ZeroBranch,
)

RNG = np.random.default_rng(20240504)


def _unitarity_defect(u):
    return np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))


class TestSlowModeSpectrum:
    def test_two_level_tie_prefers_positive(self):
        levels = slow_mode_spectrum(np.diag([1.0, -1.0]).astype(complex))
        assert levels.alpha_1 == 1.0
        assert levels.alpha_n == -1.0
        assert not levels.zero_branch

    def test_zero_branch_flagged(self):
        levels = slow_mode_spectrum(np.diag([2.0, 0.0, -1.0]).astype(complex))
        # opposite-sign pair exists, so the rotation branch wins over the zero
        assert not levels.zero_branch
        assert levels.alpha_1 == 2.0 and levels.alpha_n == -1.0
        levels = slow_mode_spectrum(np.diag([2.0, 0.0, 1.0]).astype(complex))
        assert levels.zero_branch
        assert levels.alphas[levels.index_n] == 0.0

    def test_opposite_sign_selection(self):
        levels = slow_mode_spectrum(np.diag([3.0, 1.0, -1.0]).astype(complex))
        assert levels.alpha_1 == 3.0
        assert levels.alpha_n == -1.0

    def test_descending_order_and_orthonormal(self):
        ell = np.diag([0.5, -2.0, 1.0]).astype(complex)
        levels = slow_mode_spectrum(ell)
        assert np.all(np.diff(levels.alphas) <= 0)
        assert _unitarity_defect(levels.phis) < 1e-10

    def test_sign_definite_rejected(self):
        with pytest.raises(NoOppositeSign):
            slow_mode_spectrum(np.diag([1.0, 2.0]).astype(complex))

    def test_never_raises_for_valid_slow_modes(self):
        # any Hermitian matrix trace-orthogonal to a positive unit-trace
        # state has two signs or a zero
        for trial in range(1000):
            d = 2 + trial % 5
            rho = random_density(d, RNG)
            h = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
            h = (h + h.conj().T) / 2
            ell = h - np.trace(h @ rho) * np.eye(d)
            slow_mode_spectrum(ell)


def _unit(v):
    return v / np.linalg.norm(v)


class TestBuildU1:
    def test_psi_already_first(self):
        psi = np.array([1.0, 0, 0], dtype=complex)
        u1 = build_u1(psi, psi)
        assert np.max(np.abs(u1 @ psi - psi)) < 1e-12

    def test_two_level_swap(self):
        psi = np.array([1.0, 0], dtype=complex)
        u1 = build_u1(psi, np.array([0, 1], dtype=complex))
        assert np.max(np.abs(u1 @ psi - np.array([0, 1]))) < 1e-12

    def test_defining_property_random(self):
        cases = []
        for d in (2, 3, 5, 8, 17, 41):
            for _ in range(4):
                psi = _unit(RNG.normal(size=d) + 1j * RNG.normal(size=d))
                phi = _unit(RNG.normal(size=d) + 1j * RNG.normal(size=d))
                theta = RNG.uniform(-np.pi, np.pi)
                perp = _unit(psi - np.vdot(phi, psi) * phi)
                cases += [(psi, phi), (phi, phi), (-phi, phi),
                          (np.exp(1j * theta) * phi, phi), (perp, phi)]
        for psi, phi in cases:
            u1 = build_u1(psi, phi)
            assert np.max(np.abs(u1 @ psi - phi)) <= 1e-13
            assert _unitarity_defect(u1) <= 1e-13

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            build_u1(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    def test_non_normalized_target(self):
        with pytest.raises(NotNormalized):
            build_u1(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


class TestRotationAngle:
    def test_symmetric_pair(self):
        assert rotation_angle(1.0, -1.0) == pytest.approx(np.pi / 4, abs=1e-15)

    def test_three_to_minus_one(self):
        # 3 cos^2(pi/3) - sin^2(pi/3) = 3/4 - 3/4 = 0
        s = rotation_angle(3.0, -1.0)
        assert s == pytest.approx(np.pi / 3, abs=1e-14)
        assert abs(3 * np.cos(s) ** 2 - np.sin(s) ** 2) < 1e-12

    def test_negative_first(self):
        s = rotation_angle(-2.0, 1.0)
        assert s == pytest.approx(np.arctan(np.sqrt(2)), abs=1e-15)
        assert abs(-2 * np.cos(s) ** 2 + np.sin(s) ** 2) < 1e-12

    def test_same_sign(self):
        with pytest.raises(SameSign):
            rotation_angle(1.0, 2.0)


class TestBuildRotation:
    @pytest.fixture()
    def levels(self):
        return slow_mode_spectrum(np.diag([3.0, 1.0, -1.0]).astype(complex))

    def test_zero_angle_is_identity(self, levels):
        assert np.max(np.abs(build_rotation(levels, 0.0) - np.eye(3))) < 1e-15

    def test_quarter_turn_swaps_plane(self, levels):
        u = build_rotation(levels, np.pi / 2)
        p1 = levels.phis[:, levels.index_1]
        pn = levels.phis[:, levels.index_n]
        assert np.max(np.abs(u @ p1 + 1j * pn)) < 1e-12
        assert np.max(np.abs(u @ pn + 1j * p1)) < 1e-12

    def test_inverse_angle(self, levels):
        for s in (0.3, 1.1, np.pi / 2):
            u = build_rotation(levels, s) @ build_rotation(levels, -s)
            assert np.max(np.abs(u - np.eye(3))) < 1e-12

    def test_unitary(self, levels):
        assert _unitarity_defect(build_rotation(levels, 0.7)) < 1e-12

    def test_zero_branch_rejected(self):
        levels = slow_mode_spectrum(np.diag([2.0, 0.0, 1.0]).astype(complex))
        with pytest.raises(ZeroBranch):
            build_rotation(levels, 0.5)


class TestBuildPermutation:
    def test_two_level_zero(self):
        levels = slow_mode_spectrum(np.diag([2.0, 0.0]).astype(complex))
        u = build_permutation(levels)
        psi = levels.phis[:, levels.index_1]
        rho = np.outer(psi, psi.conj())
        after = u @ rho @ u.conj().T
        assert abs(np.trace(np.diag([2.0, 0.0]) @ after)) < 1e-12

    def test_transposition_structure(self):
        levels = slow_mode_spectrum(np.diag([1.0, 0.0, 1.0]).astype(complex))
        u = build_permutation(levels)
        assert _unitarity_defect(u) < 1e-12
        assert np.max(np.abs(u @ u - np.eye(3))) < 1e-12  # involution

    def test_requires_zero(self):
        levels = slow_mode_spectrum(np.diag([3.0, -1.0]).astype(complex))
        with pytest.raises(NoZeroEigenvalue):
            build_permutation(levels)


class TestOptimalUnitary:
    @pytest.mark.parametrize("name", ["dicke", "all-to-all"])
    def test_residual_and_unitarity(self, name, both_models6):
        model, dec = both_models6[name]
        scale = np.max(np.abs(dec.left_modes[1]))
        for seed in range(10):
            psi = random_pure_state(model.dim - 1, seed)
            rot = optimal_unitary(dec, psi)
            assert rot.residual_overlap <= 1e-9 * scale
            assert _unitarity_defect(rot.unitary) <= 1e-10
            assert rot.branch == "rotation"
            assert 0 < rot.s_bar < np.pi / 2

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        planted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zeroes_the_overlap_on_random_models(self, d, n_jumps, planted, seed):
        rng = np.random.default_rng(seed)
        try:
            dec = decompose(build_liouvillian(random_lindblad_model(d, n_jumps, rng, planted)))
        except AssumptionViolation:
            assume(False)  # no unique real slow mode to remove
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        rot = optimal_unitary(dec, psi)
        assert rot.residual_overlap <= 1e-9 * np.max(np.abs(dec.left_modes[1]))
        assert _unitarity_defect(rot.unitary) <= 1e-10

    def test_permutation_branch(self, dicke6):
        # the reference models never reach it: plant a slow mode whose
        # spectrum has a zero and no opposite sign
        _, dec = dicke6
        d = dec.dim
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        alphas = np.array([3, 2, 2, 1, 1, 0.5, 0], dtype=complex)
        leading = dec.leading_left.copy()
        leading[1] = q @ np.diag(alphas) @ q.conj().T
        planted = dataclasses.replace(dec, leading_left=leading)
        psi = random_pure_state(d - 1, 0)
        rot = optimal_unitary(planted, psi)
        assert rot.branch == "permutation"
        assert rot.s_bar is None
        assert rot.residual_overlap <= 2e-16
        assert _unitarity_defect(rot.unitary) <= 4e-15
        with pytest.raises(ZeroBranch):
            overlap_scan(planted, psi, [0.0])

    def test_rotated_state_stays_pure(self, dicke6):
        _, dec = dicke6
        psi = random_pure_state(dec.dim - 1, 3)
        rot = optimal_unitary(dec, psi)
        rho = np.outer(psi, psi.conj())
        rho_rot = rot.unitary @ rho @ rot.unitary.conj().T
        eigs = np.linalg.eigvalsh(rho_rot)
        assert np.max(np.abs(np.sort(eigs) - np.sort(np.linalg.eigvalsh(rho)))) < 1e-10

    def test_initial_overlap_reported(self, dicke6):
        _, dec = dicke6
        psi = random_pure_state(dec.dim - 1, 5)
        rot = optimal_unitary(dec, psi)
        ell2 = dec.left_modes[1]
        assert rot.initial_overlap == pytest.approx(
            float(np.real(np.vdot(psi, ell2 @ psi))), abs=1e-12
        )


class TestOverlapScan:
    def test_two_level_law(self, dicke6):
        _, dec = dicke6
        psi = random_pure_state(dec.dim - 1, 11)
        rot = optimal_unitary(dec, psi)
        a1, an = rot.slow_spectrum.alpha_1, rot.slow_spectrum.alpha_n
        grid = np.linspace(0, np.pi / 2, 31)
        scan = overlap_scan(dec, psi, grid)
        for s, val in scan:
            assert abs(val - (a1 * np.cos(s) ** 2 + an * np.sin(s) ** 2)) < 1e-10
        assert abs(scan[0][1] - a1) < 1e-10
        assert abs(scan[-1][1] - an) < 1e-10

    def test_vanishes_at_closing_angle(self, dicke6):
        _, dec = dicke6
        psi = random_pure_state(dec.dim - 1, 12)
        rot = optimal_unitary(dec, psi)
        scan = overlap_scan(dec, psi, [rot.s_bar])
        assert abs(scan[0][1]) < 1e-10

    def test_cosine_fit_recovers_levels(self, all_to_all6):
        _, dec = all_to_all6
        psi = random_pure_state(dec.dim - 1, 13)
        rot = optimal_unitary(dec, psi)
        grid = np.linspace(0, np.pi / 2, 41)
        scan = np.array(overlap_scan(dec, psi, grid))
        design = np.vstack([np.cos(grid) ** 2, np.sin(grid) ** 2]).T
        sol, *_ = np.linalg.lstsq(design, scan[:, 1], rcond=None)
        assert sol[0] == pytest.approx(rot.slow_spectrum.alpha_1, abs=1e-8)
        assert sol[1] == pytest.approx(rot.slow_spectrum.alpha_n, abs=1e-8)


class TestBatchedScan:
    """The vector scan against per-angle rotation matrices."""

    @staticmethod
    def _random_case(d, n_jumps, planted, seed):
        rng = np.random.default_rng(seed)
        try:
            dec = decompose(build_liouvillian(random_lindblad_model(d, n_jumps, rng, planted)))
        except AssumptionViolation:
            assume(False)  # no unique real slow mode
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        return dec, psi, rng

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        planted=st.booleans(),
        n_angles=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_angle_reference(self, d, n_jumps, planted, n_angles, seed):
        dec, psi, rng = self._random_case(d, n_jumps, planted, seed)
        rot = optimal_unitary(dec, psi)
        assume(rot.branch == "rotation")
        levels = rot.slow_spectrum
        angles = rng.uniform(-np.pi, np.pi, size=n_angles)
        for s in angles:
            assert _unitarity_defect(build_rotation(levels, s)) <= 1e-13

        ell2 = hermitize_slow_mode(dec)
        rho1 = rot.u1 @ np.outer(psi, psi.conj()) @ rot.u1.conj().T
        scan = overlap_scan(dec, psi, angles)
        tol = 1e-14 * np.max(np.abs(ell2))
        reference = []
        for s in angles:
            u = build_rotation(levels, s)
            reference.append(np.trace(ell2 @ u @ rho1 @ u.conj().T).real)
        assert [s for s, _ in scan] == list(angles)
        assert np.max(np.abs(np.array([v for _, v in scan]) - reference)) <= tol
        (s_one, val_one), = overlap_scan(dec, psi, angles[:1])
        assert s_one == angles[0]
        assert abs(val_one - reference[0]) <= tol

    @settings(max_examples=20, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        planted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_branch_raises(self, d, n_jumps, planted, seed):
        # plant a slow mode with a zero level and no opposite sign
        dec, psi, rng = self._random_case(d, n_jumps, planted, seed)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        alphas = np.concatenate([[0.0], rng.uniform(0.5, 2.0, size=d - 1)])
        leading = dec.leading_left.copy()
        leading[1] = q @ np.diag(alphas) @ q.conj().T
        planted_dec = dataclasses.replace(dec, leading_left=leading)
        levels = slow_mode_spectrum(hermitize_slow_mode(planted_dec))
        assert levels.zero_branch
        with pytest.raises(ZeroBranch):
            build_rotation(levels, 0.5)
        with pytest.raises(ZeroBranch):
            overlap_scan(planted_dec, psi, np.linspace(0.0, 1.0, 3))


class TestSlowModeKept:
    """Every state of a decomposition reads the one Hermitian slow mode and levels it keeps."""

    @staticmethod
    def _count_eigensolves(monkeypatch):
        # slow_mode_spectrum is the only caller of hermitian_eig in the package
        calls, real = [], mpemba.hermitian_eig

        def counted(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(mpemba, "hermitian_eig", counted)
        return calls

    def test_one_eigensolve_for_every_state(self, monkeypatch):
        dec = decompose(build_liouvillian(dicke_model(DICKE_REF, 4)))
        calls = self._count_eigensolves(monkeypatch)
        for seed in (1, 2, 3):
            psi = random_pure_state(4, seed)
            optimal_unitary(dec, psi)
            overlap_scan(dec, psi, np.linspace(0.0, 1.0, 5))
        assert len(calls) == 1
        ell2, levels = dec.slow_mode
        assert np.array_equal(ell2, hermitize_slow_mode(dec))
        fresh = slow_mode_spectrum(hermitize_slow_mode(dec))
        assert np.array_equal(levels.alphas, fresh.alphas)
        assert np.array_equal(levels.phis, fresh.phis)
        for array in (ell2, levels.alphas, levels.phis):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("argv", [["reproduce", "fig2"], ["overlap-scan"]])
    def test_one_eigensolve_per_cli_run(self, argv, monkeypatch, tmp_path):
        calls = self._count_eigensolves(monkeypatch)
        assert main([*argv, "--n", "4", "--out", str(tmp_path)]) in (0, 1)
        assert len(calls) == 1

    def test_a_raising_slow_mode_is_not_kept(self, dicke6):
        _, dec = dicke6
        leading = dec.leading_left.copy()
        leading[1, 0, -1] += 1e-3 * np.max(np.abs(leading[1]))  # anti-Hermitian part 5e-4 max|l2|
        doctored = dataclasses.replace(dec, leading_left=leading)
        psi = random_pure_state(dec.dim - 1, 1)
        for _ in range(2):
            with pytest.raises(NotHermitianSlowMode):
                optimal_unitary(doctored, psi)
            with pytest.raises(NotHermitianSlowMode):
                overlap_scan(doctored, psi, np.linspace(0.0, 1.0, 3))
        assert "slow_mode" not in vars(doctored)
