from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    qubit_decay_model,
    random_density,
    random_hermitian,
    random_lindblad_model,
)

from qmpemba import (
    LindbladModel,
    TimeGrid,
    build_liouvillian,
    decompose,
    evolve_integrator,
    evolve_spectral,
    evolve_spectral_grid,
    find_plateau,
    fit_decay_rate,
    hs_distance,
    integrator_trajectory,
    robust_trajectory,
    spectral_trajectory,
    unvec,
    vec,
)
from qmpemba import dynamics
from qmpemba.dynamics import AGREEMENT_TOL
from qmpemba.errors import AssumptionViolation, PoorFit, ShapeMismatch, WindowEmpty

RNG = np.random.default_rng(20240505)


class TestTimeGrid:
    def test_linear(self):
        grid = TimeGrid.linear(0.0, 2.0, 5)
        assert np.allclose(grid.points, [0, 0.5, 1, 1.5, 2])

    def test_geometric_with_zero(self):
        grid = TimeGrid.geometric(0.1, 10.0, 5, include_zero=True)
        assert grid.points[0] == 0.0
        assert grid.points.size == 5

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(points=np.array([0.0]))
        with pytest.raises(ValueError):
            TimeGrid(points=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(points=np.array([-1.0, 1.0]))


class TestEvolveSpectral:
    def test_initial_state_recovered(self, dicke6):
        _, dec = dicke6
        rho0 = random_density(dec.dim, RNG)
        assert np.max(np.abs(evolve_spectral(dec, rho0, 0.0) - rho0)) < 1e-8

    def test_long_time_limit(self, dicke6):
        _, dec = dicke6
        rho0 = random_density(dec.dim, RNG)
        rho_inf = evolve_spectral(dec, rho0, 50.0 * dec.tau)
        assert np.max(np.abs(rho_inf - dec.stationary_state)) < 1e-8

    def test_stationary_fixed_point(self, dicke6):
        _, dec = dicke6
        for t in (0.0, 1.0, 10.0):
            rho_t = evolve_spectral(dec, dec.stationary_state, t)
            assert np.max(np.abs(rho_t - dec.stationary_state)) < 1e-9

    def test_trace_and_hermiticity_preserved(self, all_to_all6):
        _, dec = all_to_all6
        rho0 = random_density(dec.dim, RNG)
        grid = TimeGrid.linear(0.0, 5.0, 21)
        states = evolve_spectral_grid(dec, rho0, grid)
        for rho in states:
            assert abs(np.trace(rho) - 1) < 1e-9
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-9

    def test_negative_time_rejected(self, dicke6):
        _, dec = dicke6
        with pytest.raises(ValueError):
            evolve_spectral(dec, dec.stationary_state, -1.0)


class TestEvolveIntegrator:
    def test_qubit_decay_analytic(self):
        # excited population p(t) = exp(-kappa t)
        kappa = 1.0
        model = qubit_decay_model(kappa)
        rho0 = np.array([[0, 0], [0, 1]], dtype=complex)
        grid = TimeGrid.linear(0.0, 1.0, 11)
        states = evolve_integrator(model, rho0, grid)
        for t, rho in zip(grid.points, states):
            assert abs(rho[1, 1].real - np.exp(-kappa * t)) < 1e-6

    def test_unitary_evolution_preserves_purity(self):
        h = random_hermitian(4, RNG)
        model = LindbladModel(hamiltonian=h, jumps=())
        psi = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        grid = TimeGrid.linear(0.0, 3.0, 16)
        states = evolve_integrator(model, rho0, grid)
        for rho in states:
            assert abs(np.trace(rho @ rho).real - 1) < 1e-8

    def test_trace_drift_bounded(self, all_to_all6):
        model, dec = all_to_all6
        rho0 = random_density(dec.dim, RNG)
        grid = TimeGrid.linear(0.0, 5.0, 11)
        states = evolve_integrator(model, rho0, grid)
        drift = max(abs(np.trace(r) - 1) for r in states)
        assert drift < 1e-8

    def test_oracle_agreement_with_spectral(self, all_to_all6):
        model, dec = all_to_all6
        rho0 = random_density(dec.dim, RNG)
        grid = TimeGrid.linear(0.0, 10.0, 26)
        direct = evolve_integrator(model, rho0, grid)
        spectral = evolve_spectral_grid(dec, rho0, grid)
        assert np.max(np.abs(direct - spectral)) < 1e-6


class TestHsDistance:
    def test_zero_on_equal(self):
        rho = random_density(4, RNG)
        assert hs_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert hs_distance(a, b) == pytest.approx(np.sqrt(2), abs=1e-14)

    def test_triangle_inequality(self):
        for _ in range(20):
            x, y, z = (random_hermitian(3, RNG) for _ in range(3))
            assert hs_distance(x, z) <= hs_distance(x, y) + hs_distance(y, z) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            hs_distance(np.eye(2), np.eye(3))

    def test_hermiticity_required(self):
        with pytest.raises(ValueError):
            hs_distance(np.array([[0, 1], [0, 0]]), np.eye(2))


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0, 40, 400)
        e = np.exp(-0.37 * t)
        fit = fit_decay_rate(t, e, window=(0.9, 1e-6))
        assert fit.rate == pytest.approx(0.37, abs=1e-10)
        assert fit.r_squared > 0.999999

    def test_two_exponential_late_window(self):
        t = np.linspace(0, 120, 2400)
        e = 2 * np.exp(-0.1 * t) + 1e-3 * np.exp(-t)
        fit = fit_decay_rate(t, e, window=(1e-2, 1e-4))
        assert fit.rate == pytest.approx(0.1, abs=1e-3)

    def test_window_empty(self):
        t = np.linspace(0, 1, 10)
        e = np.full(10, 0.5)
        with pytest.raises(WindowEmpty):
            fit_decay_rate(t, e, window=(1e-3, 1e-6))

    def test_poor_fit_warns(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 10, 200)
        e = np.exp(-0.5 * t) * np.exp(rng.normal(scale=0.4, size=t.size))
        e = np.clip(e, 1e-9, None)
        with pytest.warns(PoorFit):
            fit = fit_decay_rate(t, e, window=(1.0, 1e-3))
        assert fit.poor

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            fit_decay_rate(np.array([0.0, 1.0]), np.array([1.0, 0.5]), window=(1e-6, 1e-2))


class TestTrajectories:
    def test_spectral_record(self, dicke6):
        _, dec = dicke6
        rho0 = random_density(dec.dim, RNG)
        grid = TimeGrid.linear(0.0, 4.0, 9)
        traj = spectral_trajectory(dec, rho0, grid)
        assert traj.source == "spectral"
        assert traj.distances[0] == pytest.approx(
            hs_distance(rho0, dec.stationary_state), abs=1e-9
        )
        assert np.all(traj.distances >= 0)

    def test_routes_agree_on_observables(self, dicke6):
        model, dec = dicke6
        rho0 = random_density(dec.dim, RNG)
        grid = TimeGrid.linear(0.0, 6.0, 13)
        a = spectral_trajectory(dec, rho0, grid)
        b = integrator_trajectory(model, dec, rho0, grid)
        assert np.max(np.abs(a.distances - b.distances)) < 1e-6
        assert np.max(np.abs(a.slow_overlaps - b.slow_overlaps)) < 1e-6

    def test_robust_is_spectral_on_clean_basis(self, all_to_all6):
        model, dec = all_to_all6
        rho0 = random_density(dec.dim, RNG)
        grid = TimeGrid.linear(0.0, 6.0, 13)
        traj = robust_trajectory(model, dec, rho0, grid)
        assert traj.source == "spectral"
        assert traj.handoff_time is None
        # t=0 row is anchored to the initial state itself
        assert traj.distances[0] == hs_distance(rho0, dec.stationary_state)
        ref = integrator_trajectory(model, dec, rho0, grid)
        assert np.max(np.abs(traj.distances - ref.distances)) < 1e-6


class TestHybridTrajectory:
    DEFECT = 1e-3

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_burn_matches_oracle_then_hands_off(self, d, n_jumps, seed):
        rng = np.random.default_rng(seed)
        model = random_lindblad_model(d, n_jumps, rng)
        try:
            dec = decompose(build_liouvillian(model))
        except AssumptionViolation as exc:
            dec = exc.decomposition
        rho0 = random_density(d, rng)
        # Perturb the fastest right mode so that its term of the mode sum is
        # DEFECT * Herm(e^{lam t} (H1 + i H2)) = DEFECT * e^{Re lam t}
        # (cos(Im lam t) H1 - sin(Im lam t) H2), with H1 diagonal and H2
        # off-diagonal: a t=0 defect far above AGREEMENT_TOL whose max-abs
        # norm never dips below 1/sqrt(2) of its decaying envelope.
        k = int(np.argmin(dec.eigenvalues.real))
        coeff = dec.left_pairing_rows()[k] @ vec(rho0)
        shape = np.zeros((d, d), dtype=complex)
        shape[0, 0], shape[1, 1] = 1.0, -1.0
        shape[0, 1] = shape[1, 0] = 1j
        right = dec.right_modes.copy()
        right[k] += self.DEFECT * shape / coeff
        perturbed = replace(dec, right_modes=right)
        grid = TimeGrid.linear(0.0, 12.0 / abs(dec.eigenvalues[k].real), 49)

        with mock.patch.object(dynamics, "_record", wraps=dynamics._record) as record:
            traj = robust_trajectory(model, perturbed, rho0, grid)
        states = record.call_args.args[1]

        assert traj.source == "hybrid"
        assert traj.handoff_time is not None
        h = int(np.searchsorted(grid.points, traj.handoff_time))
        gen = build_liouvillian(model).matrix
        exact_burn = [unvec(sla.expm(t * gen) @ vec(rho0)) for t in grid.points[: h + 1]]
        assert np.max(np.abs(states[: h + 1] - exact_burn)) < 1e-10
        # RK4 at its fixed step 0.05/||L||_inf is itself off by up to ~2e-8
        # on the fastest modes (2.1e-8 seen on one of 1500 random models)
        oracle = evolve_integrator(model, rho0, TimeGrid(points=grid.points[: h + 1]))
        assert np.max(np.abs(states[: h + 1] - oracle)) < 1e-7
        # past the handoff the perturbation is at most sqrt(2) times what the
        # agreement check let through
        unperturbed = evolve_spectral_grid(dec, rho0, grid)
        assert np.max(np.abs(states[h:] - unperturbed[h:])) < 2 * AGREEMENT_TOL
        assert np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1)) < 1e-10
        assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) < 1e-10


class TestLateTimeAffinity:
    def test_rotated_log_distance_affine(self):
        # after the slow mode is removed and the deep modes have decayed, the
        # log-distance of a real-lambda_3 model is a straight line
        from conftest import DICKE_REF

        from qmpemba import (
            build_liouvillian,
            decompose,
            dicke_model,
            optimal_unitary,
            random_pure_state,
        )

        model = dicke_model(DICKE_REF, 12)
        dec = decompose(build_liouvillian(model))
        rate3 = abs(dec.eigenvalues[2].real)
        assert dec.eigenvalues[2].imag == 0.0
        psi = random_pure_state(12, seed=4)
        rot = optimal_unitary(dec, psi)
        psi_rot = rot.unitary @ psi
        rho = np.outer(psi_rot, psi_rot.conj())
        grid = TimeGrid.linear(5.0 / rate3, 14.0 / rate3, 200)
        traj = spectral_trajectory(dec, rho, grid)
        log_e = np.log(traj.distances)
        design = np.vstack([traj.times, np.ones_like(traj.times)]).T
        sol, *_ = np.linalg.lstsq(design, log_e, rcond=None)
        resid = log_e - design @ sol
        r2 = 1 - np.sum(resid**2) / np.sum((log_e - log_e.mean()) ** 2)
        assert r2 >= 0.999
        assert abs(sol[0]) == pytest.approx(rate3, rel=0.02)


class TestFindPlateau:
    def test_detects_flat_segment(self):
        t = np.linspace(0, 10, 101)
        v = np.where(t < 5, 1.0, np.exp(-(t - 5)))
        got = find_plateau(t, v, span=2.0)
        assert got is not None
        i, j = got
        assert t[j] - t[i] >= 2.0
        assert i == 0

    def test_none_for_steady_decay(self):
        t = np.linspace(0, 10, 101)
        v = np.exp(-t)
        assert find_plateau(t, v, span=2.0) is None
