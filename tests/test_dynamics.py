from __future__ import annotations

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import expm_multiply
from hypothesis import assume, given, settings
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
    evolve_spectral_grid,
    find_plateau,
    fit_decay_rate,
    hs_distance,
    robust_trajectory,
    unvec,
    vec,
)
from qmpemba import dynamics, spectral
from qmpemba.dynamics import AGREEMENT_TOL
from qmpemba.errors import (
    AssumptionViolation,
    NotHermitian,
    NotNormalized,
    PoorFit,
    ShapeMismatch,
    WindowEmpty,
)

RNG = np.random.default_rng(20240505)


def _with_right_mode(dec, k, r):
    """A copy of ``dec`` whose packed unit of mode k (a real mode or Im > 0) holds ``r``.

    The unit's two rows become 2 Re v and -2 Im v, with v the basis
    coordinates of ``r``, halved for a real mode, and its peak ``max|r|``,
    doubled for a pair, as ``HermitianModes`` lays them out.
    """
    plan, lam = dec.packed, dec.eigenvalues
    b = next(b for b, modes in enumerate(dec.blocks) if k in modes)
    modes = dec.blocks[b]
    u = int(np.flatnonzero(modes[(lam[modes].imag >= 0) & (modes != 0)] == k)[0])
    coords, lam_u, left, right, peak = plan.blocks[b]
    right, peak = right.copy(), peak.copy()
    real = lam[k].imag == 0
    v = (plan.basis.conj() @ vec(r))[coords]
    right[2 * u : 2 * u + 2] = np.array([v.real, -v.imag]) * (1 if real else 2)
    peak[u] = np.max(np.abs(r)) * (1 if real else 2)
    blocks = list(plan.blocks)
    blocks[b] = (coords, lam_u, left, right, peak)
    return replace(dec, packed=replace(plan, blocks=tuple(blocks)))


def _recorded_states(dec, record):
    """The states behind the coordinate rows of ``rho(t) - rho_ss`` that ``_record`` was given."""
    plan = dec.packed
    return plan.hermitian(record.call_args.args[1] + plan.stationary)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        # rejected before numpy spaces the points, so with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                TimeGrid(points=np.array([0.0, bad]))
            with pytest.raises(ValueError, match="finite"):
                TimeGrid(points=np.array([0.0, 1.0, bad]))
            for start, stop in ((0.0, bad), (bad, 1.0)):
                with pytest.raises(ValueError, match="finite"):
                    TimeGrid.linear(start, stop, 5)
            with pytest.raises(ValueError, match="finite"):
                TimeGrid.geometric(0.1, bad, 5, include_zero=True)
            with pytest.raises(ValueError, match="t_start > 0" if bad < 0 else "finite"):
                TimeGrid.geometric(bad, 1.0, 5)


class TestEvolveSpectral:
    def test_initial_state_recovered(self, dicke6):
        _, dec = dicke6
        rho0 = random_density(dec.dim, RNG)
        rho_0 = evolve_spectral_grid(dec, rho0, TimeGrid.linear(0.0, 1.0, 2))[0]
        assert np.max(np.abs(rho_0 - rho0)) < 1e-8

    def test_long_time_limit(self, dicke6):
        _, dec = dicke6
        rho0 = random_density(dec.dim, RNG)
        rho_inf = evolve_spectral_grid(dec, rho0, TimeGrid.linear(0.0, 50.0 * dec.tau, 2))[-1]
        assert np.max(np.abs(rho_inf - dec.stationary_state)) < 1e-8

    def test_stationary_fixed_point(self, dicke6):
        _, dec = dicke6
        grid = TimeGrid(points=np.array([0.0, 1.0, 10.0]))
        for rho_t in evolve_spectral_grid(dec, dec.stationary_state, grid):
            assert np.max(np.abs(rho_t - dec.stationary_state)) < 1e-9

    def test_trace_and_hermiticity_preserved(self, all_to_all6):
        _, dec = all_to_all6
        rho0 = random_density(dec.dim, RNG)
        grid = TimeGrid.linear(0.0, 5.0, 21)
        states = evolve_spectral_grid(dec, rho0, grid)
        for rho in states:
            assert abs(np.trace(rho) - 1) < 1e-9
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-9

    def test_state_trace_checked(self, dicke6):
        _, dec = dicke6
        with pytest.raises(NotNormalized):
            evolve_spectral_grid(dec, 2 * dec.stationary_state, TimeGrid.linear(0.0, 1.0, 2))

    def test_state_hermiticity_checked(self, dicke6):
        _, dec = dicke6
        rho = dec.stationary_state.copy()
        rho[0, 1] += 1e-3
        with pytest.raises(NotHermitian):
            evolve_spectral_grid(dec, rho, TimeGrid.linear(0.0, 1.0, 2))


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
        with pytest.raises(NotHermitian):
            hs_distance(np.array([[0, 1], [0, 0]]), np.eye(2))

    def test_stack_matches_pairwise(self):
        stack = np.array([random_hermitian(4, RNG) for _ in range(7)])
        sigma = random_density(4, RNG)
        dists = hs_distance(stack, sigma)
        assert isinstance(hs_distance(stack[0], sigma), float)
        assert dists.shape == (7,)
        pairwise = [np.linalg.norm(s - sigma, "fro") for s in stack]
        assert np.allclose(dists, pairwise, rtol=4 * np.finfo(float).eps, atol=0)

    def test_stack_checked(self):
        stack = np.array([random_hermitian(3, RNG) for _ in range(3)])
        stack[1, 0, 2] += 1e-6
        with pytest.raises(NotHermitian):
            hs_distance(stack, np.eye(3))
        stack[1, 0, 2] = np.nan
        with pytest.raises(ValueError):
            hs_distance(stack, np.eye(3))
        with pytest.raises(ShapeMismatch):
            hs_distance(np.zeros((3, 2, 3)), np.zeros((2, 3)))


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
        model, dec = dicke6
        rho0 = random_density(dec.dim, RNG)
        grid = TimeGrid.linear(0.0, 4.0, 9)
        traj = robust_trajectory(model, dec, rho0, grid)
        assert traj.source == "spectral"
        assert traj.distances[0] == pytest.approx(
            hs_distance(rho0, dec.stationary_state), abs=1e-9
        )
        assert np.all(traj.distances >= 0)

    def test_non_finite_state_rejected(self, dicke6):
        # the input check (``as_matrix``) refuses NaN before any exact step
        model, dec = dicke6
        rho0 = dec.stationary_state.copy()
        rho0[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"), \
                mock.patch.object(dynamics, "_real_generator") as real:
            robust_trajectory(model, dec, rho0, TimeGrid.linear(0.0, 1.0, 5))
        real.assert_not_called()

    def test_routes_agree_on_observables(self, dicke6):
        model, dec = dicke6
        rho0 = random_density(dec.dim, RNG)
        grid = TimeGrid.linear(0.0, 6.0, 13)
        traj = robust_trajectory(model, dec, rho0, grid)
        states = evolve_integrator(model, rho0, grid)
        distances = [hs_distance(s, dec.stationary_state) for s in states]
        overlaps = np.einsum("ij,tji->t", dec.left_modes[1], states)
        assert np.max(np.abs(traj.distances - distances)) < 1e-6
        assert np.max(np.abs(traj.slow_overlaps - overlaps)) < 1e-6

    def test_robust_is_spectral_on_clean_basis(self, all_to_all6):
        model, dec = all_to_all6
        rho0 = random_density(dec.dim, RNG)
        grid = TimeGrid.linear(0.0, 6.0, 13)
        with mock.patch.object(dynamics, "build_liouvillian") as build, \
                mock.patch.object(dynamics, "_real_generator") as real:
            traj = robust_trajectory(model, dec, rho0, grid)
        assert traj.source == "spectral"
        assert traj.handoff_time == 0.0
        build.assert_not_called()  # nothing was propagated exactly
        real.assert_not_called()  # nor was the real generator built for it
        assert traj.exact_matvecs == 0
        # t=0 row is anchored to the initial state itself; the norm of its
        # coordinates and the matrix norm round differently
        eps = np.finfo(float).eps
        assert traj.distances[0] == pytest.approx(
            hs_distance(rho0, dec.stationary_state), rel=4 * eps, abs=0)
        states = evolve_integrator(model, rho0, grid)
        distances = [hs_distance(s, dec.stationary_state) for s in states]
        assert np.max(np.abs(traj.distances - distances)) < 1e-6

    def test_exact_segment_reuses_the_decomposed_generator(self, all_to_all6, monkeypatch):
        model, _ = all_to_all6
        sup = build_liouvillian(model)
        dec = decompose(sup)
        rho0 = random_density(dec.dim, RNG)
        grid = TimeGrid.linear(0.0, 6.0, 13)
        monkeypatch.setattr(dynamics, "AGREEMENT_TOL", -1.0)  # the routes never agree
        with mock.patch.object(dynamics, "build_liouvillian") as build, \
                mock.patch.object(dynamics, "_record", wraps=dynamics._record) as record:
            traj = robust_trajectory(model, dec, rho0, grid)
        build.assert_not_called()
        assert traj.source == "hybrid" and traj.handoff_time is None
        gen = sup.matrix.toarray()
        exact = [unvec(sla.expm(t * gen) @ vec(rho0)) for t in grid.points]
        assert np.max(np.abs(_recorded_states(dec, record) - exact)) < 1e-10

    @pytest.mark.parametrize("tol", [AGREEMENT_TOL, -1.0])
    def test_state_is_mapped_once(self, dicke6, monkeypatch, tol):
        # rho0 goes to coordinates and coefficients once, on a trajectory that
        # hands off at t=0 and on one that never hands off
        model, dec = dicke6
        coordinates = spectral.HermitianModes.coordinates
        mapped = []

        def counted(self, x):
            mapped.append(1)
            return coordinates(self, x)

        monkeypatch.setattr(dynamics, "AGREEMENT_TOL", tol)
        monkeypatch.setattr(spectral.HermitianModes, "coordinates", counted)
        with mock.patch.object(dynamics, "_coefficients", wraps=dynamics._coefficients) as coeff:
            traj = robust_trajectory(model, dec, random_density(dec.dim, RNG),
                                     TimeGrid.linear(0.0, 4.0, 9))
        assert traj.source == ("spectral" if tol > 0 else "hybrid")
        coeff.assert_called_once()
        assert len(mapped) == 1


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
        # Perturb the fastest right mode that the sum carries, a real mode or
        # the Im lam > 0 member of a pair, so that its term of the mode sum
        # changes by DEFECT * Herm(e^{lam t} (H1 + i H2)) = DEFECT * e^{Re lam t}
        # (cos(Im lam t) H1 - sin(Im lam t) H2), twice that for a pair, whose
        # term is z r + (z r)^H; H1 is diagonal and H2 off-diagonal: a t=0
        # defect far above AGREEMENT_TOL whose max-abs norm never dips below
        # 1/sqrt(2) of its decaying envelope.
        lam = dec.eigenvalues
        k = int(np.argmin(np.where(lam.imag >= 0, lam.real, np.inf)))
        coeff = dec.left_modes[k].ravel() @ vec(rho0)
        shape = np.zeros((d, d), dtype=complex)
        shape[0, 0], shape[1, 1] = 1.0, -1.0
        shape[0, 1] = shape[1, 0] = 1j
        perturbed = _with_right_mode(dec, k, dec.right_modes[k] + self.DEFECT * shape / coeff)
        grid = TimeGrid.linear(0.0, 12.0 / abs(dec.eigenvalues[k].real), 49)

        with mock.patch.object(dynamics, "_record", wraps=dynamics._record) as record:
            traj = robust_trajectory(model, perturbed, rho0, grid)
        states = _recorded_states(perturbed, record)

        assert traj.source == "hybrid"
        assert traj.handoff_time is not None
        assert traj.exact_matvecs > 0
        h = int(np.searchsorted(grid.points, traj.handoff_time))
        gen = build_liouvillian(model).matrix.toarray()
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


class TestTaylorStepper:
    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        geometric=st.booleans(),
        reach=st.floats(-3.0, np.log10(500.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_dense_expm(self, d, n_jumps, geometric, reach, seed):
        # the routes never agree, so every row is the stepper's; the widest
        # interval has h |A|_1 = 10^reach on a linear grid, and a geometric
        # grid runs from 1e-3 up to about that
        rng = np.random.default_rng(seed)
        model = random_lindblad_model(d, n_jumps, rng)
        sup = build_liouvillian(model)
        try:
            dec = decompose(sup)
        except AssumptionViolation as exc:
            dec = exc.decomposition
        rho0 = random_density(d, rng)
        norm = dynamics._real_generator(dec)[2]
        h = 10.0**reach / norm
        if geometric:
            grid = TimeGrid.geometric(1e-3 / norm, max(2 * h, 2e-3 / norm), 8, include_zero=True)
        else:
            grid = TimeGrid.linear(0.0, 4 * h, 5)
        with mock.patch.object(dynamics, "AGREEMENT_TOL", -1.0), \
                mock.patch.object(dynamics, "_record", wraps=dynamics._record) as record, \
                mock.patch.object(dynamics, "_real_generator", wraps=dynamics._real_generator) as real:
            traj = robust_trajectory(model, dec, rho0, grid)
        assert traj.handoff_time is None and traj.exact_matvecs > 0
        real.assert_called_once()
        plan, gen = dec.packed, sup.matrix.toarray()
        exact = [plan.coordinates(unvec(sla.expm(t * gen) @ vec(rho0))) for t in grid.points]
        rows = record.call_args.args[1] + plan.stationary
        assert np.max(np.abs(rows - exact)) < 1e-10


class TestOneTrajectoryLoop:
    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        planted=st.booleans(),
        from_zero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_on_every_grid_time(self, d, n_jumps, planted, from_zero, seed):
        rng = np.random.default_rng(seed)
        model = random_lindblad_model(d, n_jumps, rng, planted)
        try:
            dec = decompose(build_liouvillian(model))
        except AssumptionViolation as exc:
            dec = exc.decomposition
        assume(dec is not None)  # no unique stationary state
        rho0 = random_density(d, rng)
        t_start = 0.0 if from_zero else 0.25 * dec.tau
        grid = TimeGrid.linear(t_start, t_start + 4.0 * dec.tau, 33)

        with mock.patch.object(dynamics, "_record", wraps=dynamics._record) as record:
            traj = robust_trajectory(model, dec, rho0, grid)
        states = _recorded_states(dec, record)

        gen = build_liouvillian(model).matrix.toarray()
        exact = [unvec(sla.expm(t * gen) @ vec(rho0)) for t in grid.points]
        assert np.max(np.abs(states - exact)) < 2 * AGREEMENT_TOL
        assert np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1)) < 1e-10
        assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) < 1e-10
        assert (traj.handoff_time == 0.0) == (traj.source == "spectral")
        if not from_zero:
            assert traj.source == "hybrid"


class TestActiveModeSum:
    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        planted=st.booleans(),
        from_zero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_untruncated_sum(self, d, n_jumps, planted, from_zero, seed):
        rng = np.random.default_rng(seed)
        model = random_lindblad_model(d, n_jumps, rng, planted)
        try:
            dec = decompose(build_liouvillian(model))
        except AssumptionViolation as exc:
            dec = exc.decomposition
        assume(dec is not None)  # no unique stationary state
        m = d * d
        right = dec.right_modes.transpose(0, 2, 1).reshape(m, -1)  # rows vec(r_k)
        left = dec.left_modes.reshape(m, -1)  # rows w_k with Tr(l_k X) = w_k . vec(X)

        # the block invariants the block-wise sum relies on: the column-stacking
        # supports of the blocks' basis rows are disjoint
        plan = dec.packed
        supports = [np.unique(plan.basis[coords].indices) for coords, *_ in plan.blocks]
        modes = np.concatenate(dec.blocks)
        assert np.array_equal(np.sort(modes), np.arange(m))
        assert np.unique(np.concatenate(supports)).size == sum(s.size for s in supports)
        for block_modes, support in zip(dec.blocks, supports):
            outside = np.setdiff1d(np.arange(m), support)
            assert not np.any(right[np.ix_(block_modes, outside)])
            assert not np.any(left[np.ix_(block_modes, outside)])

        rho0 = random_density(d, rng)
        t_start = 0.0 if from_zero else 2.0 * dec.tau
        grid = TimeGrid.linear(t_start, t_start + 8.0 * dec.tau, 97)
        coeff = left @ vec(rho0)
        terms = np.exp(np.outer(grid.points, dec.eigenvalues)) * coeff
        reference = (terms[:, 1:] @ right[1:]).reshape(-1, d, d).transpose(0, 2, 1)
        reference = reference + coeff[0] * dec.stationary_state
        reference = (reference + reference.conj().transpose(0, 2, 1)) / 2
        # sum_k |c_k| max|r_k| e^{Re lam_k t}: the rounding bound of the full sum
        bound = np.abs(terms) @ np.abs(right).max(axis=1)
        states = evolve_spectral_grid(dec, rho0, grid)
        err = np.max(np.abs(states - reference), axis=(1, 2))
        assert np.all(err <= 8 * (np.finfo(float).eps / 2) * bound)
        assert np.array_equal(states, states.conj().transpose(0, 2, 1))
        # the plain sum over every mode, both members of each pair included
        dense = np.tensordot(terms, dec.right_modes, axes=(1, 0))
        err = np.max(np.abs(states - dense), axis=(1, 2))
        assert np.all(err <= 1e-12 * np.max(np.abs(dense), axis=(1, 2)))

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        planted=st.booleans(),
        chunks_per_tau=st.integers(2, 5),
        offset=st.sampled_from([0.0, 0.1, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_on_grids_of_several_chunks_per_tau(
        self, d, n_jumps, planted, chunks_per_tau, offset, seed
    ):
        # the first chunk starts within one decay time of the fastest mode, and
        # every chunk is a fraction of tau, so the prefix counted at each chunk
        # start changes from chunk to chunk
        rng = np.random.default_rng(seed)
        model = random_lindblad_model(d, n_jumps, rng, planted)
        try:
            dec = decompose(build_liouvillian(model))
        except AssumptionViolation as exc:
            dec = exc.decomposition
        assume(dec is not None)  # no unique stationary state
        right = dec.right_modes.transpose(0, 2, 1).reshape(d * d, -1)  # rows vec(r_k)
        rho0 = random_density(d, rng)
        t_start = offset / float(np.max(np.abs(dec.eigenvalues.real)))
        per_tau = chunks_per_tau * dynamics._MODE_SUM_CHUNK
        grid = TimeGrid.linear(t_start, t_start + 3.0 * dec.tau, 3 * per_tau + 1)
        coeff = dec.left_modes.reshape(d * d, -1) @ vec(rho0)
        terms = np.exp(np.outer(grid.points, dec.eigenvalues)) * coeff
        reference = (terms[:, 1:] @ right[1:]).reshape(-1, d, d).transpose(0, 2, 1)
        reference = reference + coeff[0] * dec.stationary_state
        reference = (reference + reference.conj().transpose(0, 2, 1)) / 2
        bound = np.abs(terms) @ np.abs(right).max(axis=1)
        states = evolve_spectral_grid(dec, rho0, grid)
        err = np.max(np.abs(states - reference), axis=(1, 2))
        assert np.all(err <= 8 * (np.finfo(float).eps / 2) * bound)


class TestHermitianModes:
    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        planted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_units_are_whole_pairs(self, d, n_jumps, planted, seed):
        rng = np.random.default_rng(seed)
        try:
            dec = decompose(build_liouvillian(random_lindblad_model(d, n_jumps, rng, planted)))
        except AssumptionViolation as exc:
            dec = exc.decomposition
        assume(dec is not None)  # no unique stationary state
        lam = dec.eigenvalues
        plan = dec.packed
        for modes, (coords, units, left, right, peak) in zip(dec.blocks, plan.blocks):
            support = np.unique(plan.basis[coords].indices)
            assert coords.stop - coords.start == support.size
            assert np.array_equal(units, lam[modes[(lam[modes].imag >= 0) & (modes != 0)]])
            assert left.shape == right.shape == (2 * units.size, support.size)
            assert peak.shape == units.shape
            assert not np.any(right[1::2][units.imag == 0])  # a real mode has one live row
            # each dropped Im < 0 mode is the exact adjoint of a kept one
            for j in modes[lam[modes].imag < 0]:
                partners = modes[lam[modes] == np.conj(lam[j])]
                assert any(
                    np.array_equal(dec.right_modes[j], dec.right_modes[k].conj().T)
                    for k in partners
                )
        # the prefix counts units, two rows each, so no prefix splits a pair
        counted, active_prefix = [], dynamics._active_prefix

        def recording(weight, rate, starts):
            prefix = active_prefix(weight, rate, starts)
            counted.append((weight.size, prefix))
            return prefix

        rho0 = random_density(d, rng)
        grid = TimeGrid.linear(0.0, 6.0 * dec.tau, 3 * dynamics._MODE_SUM_CHUNK + 1)
        with mock.patch.object(dynamics, "_active_prefix", recording):
            evolve_spectral_grid(dec, rho0, grid)
        assert [size for size, _ in counted] == [b[1].size for b in plan.blocks]
        assert all(np.all(prefix <= size) for size, prefix in counted)

    def test_a_replaced_decomposition_is_summed_from_its_own_modes(self, all_to_all6):
        _, dec = all_to_all6
        rho0 = random_density(dec.dim, RNG)
        grid = TimeGrid.linear(0.0, 3.0 * dec.tau, 41)
        states = evolve_spectral_grid(dec, rho0, grid)
        full = dec.right_modes  # expanded and kept
        plan = dec.packed
        doubled = replace(dec, packed=replace(plan, blocks=tuple(
            (coords, lam, left, 2 * right, 2 * peak)
            for coords, lam, left, right, peak in plan.blocks
        )))
        got = evolve_spectral_grid(doubled, rho0, grid)
        expected = 2 * states - np.trace(rho0).real * dec.stationary_state
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        # the copy expands its own packed form, not the kept arrays of dec
        assert np.array_equal(doubled.right_modes[1:], 2 * full[1:])
        assert np.array_equal(doubled.right_modes[0], dec.stationary_state)
        assert dec.right_modes is full  # kept, not rebuilt


class TestHandoffDecision:
    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(2, 6), n_jumps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_decision_survives_row_reordering(self, d, n_jumps, seed):
        # the same planted model decomposed with the rows of each block in
        # three orders: the eigensolver rounds differently each time, and the
        # t=0 decision must not follow the rounding
        rng = np.random.default_rng(seed)
        model = random_lindblad_model(d, n_jumps, rng, planted=True)
        sup = build_liouvillian(model)
        rho0 = random_density(d, rng)
        blocks = spectral._blocks
        grid, sources = None, []
        for order in (lambda rows: rows, lambda rows: rows[::-1], rng.permutation):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral, "_blocks", lambda lr, basis: [order(r) for r in blocks(lr, basis)])
                try:
                    dec = decompose(sup)
                except AssumptionViolation as exc:
                    dec = exc.decomposition
            assume(dec is not None)  # no unique stationary state
            grid = grid or TimeGrid.linear(0.0, 4.0 * dec.tau, 33)
            traj = robust_trajectory(model, dec, rho0, grid)
            x = dec.packed.coordinates(rho0)
            weight = sum(w.sum() for _, w in dynamics._coefficients(dec, x))
            bound = dec.diagnostics.biorthonormality_residual * weight
            defect = np.max(np.abs(evolve_spectral_grid(dec, rho0, grid)[0] - rho0))
            assert (traj.source == "spectral") == (max(bound, defect) <= AGREEMENT_TOL)
            sources.append(traj.source)
        assert sources[1:] == sources[:-1]


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
        traj = robust_trajectory(model, dec, rho, grid)
        log_e = np.log(traj.distances)
        design = np.vstack([traj.times, np.ones_like(traj.times)]).T
        sol, *_ = np.linalg.lstsq(design, log_e, rcond=None)
        resid = log_e - design @ sol
        r2 = 1 - np.sum(resid**2) / np.sum((log_e - log_e.mean()) ** 2)
        assert r2 >= 0.999
        assert abs(sol[0]) == pytest.approx(rate3, rel=0.02)


class TestCoordinateTrajectory:
    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        planted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reductions_match_the_states(self, d, n_jumps, planted, seed):
        rng = np.random.default_rng(seed)
        model = random_lindblad_model(d, n_jumps, rng, planted)
        try:
            dec = decompose(build_liouvillian(model))
        except AssumptionViolation as exc:
            dec = exc.decomposition
        assume(dec is not None)  # no unique stationary state
        rho0 = random_density(d, rng)
        grid = TimeGrid.linear(0.0, 4.0 * dec.tau, 41)
        traj = robust_trajectory(model, dec, rho0, grid)
        sigma, ell = dec.stationary_state, dec.leading_left[1]
        # past the handoff every row is the mode sum's
        assert traj.handoff_time is not None
        first = int(np.searchsorted(grid.points, traj.handoff_time)) + 1
        states = evolve_spectral_grid(dec, rho0, grid)[first:]
        distances = hs_distance(states, sigma)
        overlaps = np.einsum("ij,tji->t", ell, states)
        floor = 1e-13 * max(1.0, float(np.max(np.abs(sigma))))
        assert np.all(np.abs(traj.distances[first:] - distances) <= 1e-12 * distances + floor)
        scale = float(np.max(np.abs(ell)))
        assert np.all(np.abs(traj.slow_overlaps[first:] - overlaps)
                      <= 1e-12 * np.abs(overlaps) + floor * scale)
        # the last grid points against the exact action on rho0 - rho_ss
        gen = build_liouvillian(model).matrix
        for i in range(grid.points.size - 3, grid.points.size):
            delta = unvec(expm_multiply(grid.points[i] * gen, vec(rho0 - sigma)))
            exact = float(np.linalg.norm(delta))
            assert abs(traj.distances[i] - exact) <= 1e-12 * exact + floor


class TestFitStart:
    # a qubit with H = sigma_z / 2, decay sqrt(kappa) sigma_- and dephasing
    # sqrt(gamma) sigma_z: the population relaxes at lambda_2 = -kappa, the
    # coherence pair at lambda_3 = -(kappa / 2 + 2 gamma) +- i, and the
    # weights are the terms' own sizes: p1 for the population (r_2 ~
    # diag(-1, 1)) and 2 |rho[0, 1]| for the pair
    KAPPA, GAMMA = 1.0, 1.0

    @pytest.fixture(scope="class")
    def qubit(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        model = LindbladModel(
            hamiltonian=z / 2,
            jumps=(np.sqrt(self.KAPPA) * np.array([[0, 1], [0, 0]], dtype=complex),
                   np.sqrt(self.GAMMA) * z),
        )
        dec = decompose(build_liouvillian(model))
        assert dec.eigenvalues[1] == pytest.approx(-self.KAPPA)
        assert dec.eigenvalues[2].real == pytest.approx(-(self.KAPPA / 2 + 2 * self.GAMMA))
        return dec

    @pytest.mark.parametrize("theta", [0.3, 0.9, 1.4])
    def test_first_time_the_slow_term_dominates(self, qubit, theta):
        psi = np.array([np.cos(theta), np.sin(theta) * np.exp(0.7j)])
        rho0 = np.outer(psi, psi.conj())
        grid = TimeGrid.linear(0.0, 20.0, 2001)
        slow = rho0[1, 1].real * np.exp(-self.KAPPA * grid.points)
        rest = 2 * abs(rho0[0, 1]) * np.exp(-(self.KAPPA / 2 + 2 * self.GAMMA) * grid.points)
        first = int(np.argmax(rest <= dynamics.FIT_START_FRACTION * slow))
        assert dynamics.fit_start(qubit, rho0, grid, 1) == grid.points[first]
        # the population term is never the rest's hundredth
        assert dynamics.fit_start(qubit, rho0, grid, 2) is None

    def test_state_checked(self, qubit):
        grid = TimeGrid.linear(0.0, 20.0, 201)
        with pytest.raises(ShapeMismatch):
            dynamics.fit_start(qubit, np.eye(3) / 3, grid, 1)
        with pytest.raises(NotNormalized):
            dynamics.fit_start(qubit, np.eye(2), grid, 1)

    def test_none_without_slow_overlap(self, qubit):
        grid = TimeGrid.linear(0.0, 20.0, 201)
        assert dynamics.fit_start(qubit, qubit.stationary_state, grid, 1) is None


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
