from __future__ import annotations

import copy
import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import (
    ALL_TO_ALL_REF,
    DICKE_REF,
    conjugation_closure_residual,
    qubit_decay_model,
    random_density,
    random_hermitian,
    random_lindblad_model,
)

from qmpemba import (
    TimeGrid,
    all_to_all_model,
    build_liouvillian,
    decompose,
    dicke_model,
    hermitize_slow_mode,
    random_pure_state,
    robust_trajectory,
)
from qmpemba import dynamics, spectral
from qmpemba.errors import (
    AssumptionViolation,
    ComplexSlowMode,
    DegenerateSlowMode,
    DegenerateStationaryState,
    IllConditionedBasis,
    NoConvergence,
    NotHermitian,
    NotHermitianSlowMode,
)
from qmpemba.spectral import (
    CONDITION_WARN_THRESHOLD,
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
        reference = sla.eigvals(sup.matrix.toarray())

        sizes = []  # one entry per block eigensolve, from whichever thread runs it
        block_eig = spectral._block_eig

        def recording_eig(sub):
            sizes.append(sub.shape[0])
            return block_eig(sub)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_block_eig", recording_eig)
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
        full = dec.left_modes.reshape(m, -1) @ dec.right_modes.transpose(0, 2, 1).reshape(m, -1).T
        assert np.max(np.abs(full - np.eye(m))) == pytest.approx(
            dec.diagnostics.biorthonormality_residual, rel=1e-6, abs=1e-14
        )
        assert np.array_equal(dec.left_modes[0], np.eye(d))
        assert abs(np.trace(dec.stationary_state) - 1) < 1e-12


def _random_decomposition(d, n_jumps, planted, seed):
    """Decomposition and generator of a random model; None without a unique stationary state."""
    sup = build_liouvillian(random_lindblad_model(d, n_jumps, np.random.default_rng(seed), planted))
    try:
        return decompose(sup), sup
    except AssumptionViolation as exc:
        return exc.decomposition, sup


def _exact_partners(lam, blocks):
    """Pairs (k, j): each Im > 0 mode with the first unused mode of value conj(lam_k) in its block."""
    pairs = []
    for modes in blocks:
        free = [j for j in modes if lam[j].imag < 0]
        for k in modes:
            if lam[k].imag > 0:
                j = next(j for j in free if lam[j] == np.conj(lam[k]))
                free.remove(j)
                pairs.append((k, j))
    return pairs


random_models = given(
    d=st.integers(2, 6),
    n_jumps=st.integers(1, 3),
    planted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


class TestModeConvention:
    @settings(max_examples=30, deadline=None)
    @random_models
    def test_pairs_are_exact_adjoints_with_fixed_phases(self, d, n_jumps, planted, seed):
        dec, _ = _random_decomposition(d, n_jumps, planted, seed)
        assume(dec is not None)
        lam = dec.eigenvalues
        assert np.array_equal(dec.left_modes[0], np.eye(d))
        pairs = _exact_partners(lam, dec.blocks)
        assert 2 * len(pairs) == np.count_nonzero(lam.imag)
        for k, j in pairs:
            assert np.array_equal(dec.right_modes[j], dec.right_modes[k].conj().T)
            assert np.array_equal(dec.left_modes[j], dec.left_modes[k].conj().T)
        for k in np.flatnonzero(lam.imag >= 0)[1:]:
            ell = dec.left_modes[k]
            val = ell.flat[np.argmax(np.abs(ell))]  # the first largest-modulus entry
            assert val.real > 0
            if lam[k].imag > 0:
                assert abs(val.imag) <= 1e-14 * abs(val)


class TestPolish:
    @settings(max_examples=30, deadline=None)
    @random_models
    @example(d=0, n_jumps=0, planted=False, seed=0)
    def test_slow_vectors_meet_the_residual_bound(self, dicke6, d, n_jumps, planted, seed):
        # measured worst over 600 such vectors of random models: 1.2e-15.
        # d=0 stands for dicke N=6, whose slow modes lie in two blocks (modes
        # 0 and 1 in one, mode 2 in the other), so each block polishes its own
        if d == 0:
            dec, sup = dicke6[1], build_liouvillian(dicke6[0])
            assert [np.isin([1, 2], modes).tolist() for modes in dec.blocks] == [
                [True, False], [False, True]]
        else:
            dec, sup = _random_decomposition(d, n_jumps, planted, seed)
            assume(dec is not None)
        d = dec.dim
        basis = hermitian_operator_basis_rows(d)
        lr = (basis.conj() @ sup.matrix @ basis.T).toarray()
        scale = np.linalg.norm(lr, 2)
        for k in (1, 2):
            lam = dec.eigenvalues[k]
            v = basis.conj() @ vec(dec.right_modes[k])  # Hermitian-basis coordinates
            w = dec.left_modes[k].ravel() @ basis.T
            assert np.linalg.norm(lr @ v - lam * v) <= 1e-12 * scale * np.linalg.norm(v)
            assert np.linalg.norm(w @ lr - lam * w) <= 1e-12 * scale * np.linalg.norm(w)

    def test_polish_reaches_the_dicke_n40_slow_mode(self, dicke40):
        # the inputs above are small enough that the packed inverse alone
        # meets that bound; at dicke N=40 it leaves an l2 residual of about
        # 1e-7 of the 1-norm, and the polish brings it to about 1e-16
        model, dec = dicke40
        basis = hermitian_operator_basis_rows(dec.dim)
        lr = (basis.conj() @ build_liouvillian(model).matrix @ basis.T).real
        w = dec.leading_left[1].ravel() @ basis.T
        residual = np.linalg.norm(w @ lr - dec.eigenvalues[1] * w)
        assert residual <= 1e-12 * spla.norm(lr, 1) * np.linalg.norm(w)

    @pytest.mark.parametrize("lam, block", [
        (0j, np.zeros((3, 3))),
        (1j, np.array([[0.0, 1.0], [-1.0, 0.0]])),  # lr - i is exactly singular
    ])
    def test_singular_shift_returns_none(self, lam, block):
        n = block.shape[0]
        assert spectral._refine_pair(sp.csc_matrix(block), lam, np.ones(n, dtype=complex),
                                     np.ones(n, dtype=complex), 0.0) is None


class TestUnits:
    """The finisher takes units, a real mode or a pair's Im > 0 member each."""

    def test_a_complex_pair_takes_one_lu(self, monkeypatch):
        # lambda_2 and lambda_3 are one pair here: the stationary mode takes
        # one LU and the pair one, not one per member
        dtypes = []
        splu = spectral.splu
        monkeypatch.setattr(spectral, "splu", lambda a: dtypes.append(a.dtype) or splu(a))
        model = dicke_model(dataclasses.replace(DICKE_REF, Omega=0.5), 1)
        with pytest.raises(ComplexSlowMode) as info:
            decompose(build_liouvillian(model))
        lam = info.value.decomposition.eigenvalues
        assert lam[1].imag > 0 and lam[2] == np.conj(lam[1])
        assert dtypes == [np.float64, np.complex128]

    @pytest.mark.parametrize("name", ["dicke", "all-to-all"])
    def test_halves_finish_like_the_whole_block(self, name, monkeypatch):
        # each unit is finished on its own rows: the two halves of a block's
        # units store exactly the rows, eigenvalues and peaks of the whole, and
        # each half's residual covers fewer pairings than the whole one's
        calls = []
        finish = spectral._finish_block
        monkeypatch.setattr(spectral, "_finish_block",
                            lambda *args: calls.append(copy.deepcopy(args)) or finish(*args))
        model = dicke_model(DICKE_REF, 6) if name == "dicke" else all_to_all_model(ALL_TO_ALL_REF, 6)
        decompose(build_liouvillian(model))
        assert len(calls) >= 1
        for rows, mode, pair, left, right, lam, basis, ell2, stationary in calls:
            run = [left.copy(), right.copy(), ell2.copy(), stationary.copy()]
            whole, residual = finish(rows, mode, pair, *run[:2], lam, basis, *run[2:])
            first, n = int(mode[0] == 0), rows.size
            half = mode.size // 2
            for cut in (slice(0, half), slice(half, None)):
                out = [left[cut].copy(), right[cut].copy(), np.zeros_like(ell2),
                       np.zeros_like(stationary)]
                units, part = finish(rows, mode[cut], pair[cut], *out[:2], lam, basis, *out[2:])
                assert part <= residual
                lo, hi = max(cut.start, first) - first, (cut.stop or mode.size) - first
                for got, full, step in zip(units, whole, (1, 2, 2, 1)):
                    assert got.tobytes() == full[step * lo: step * hi].tobytes()
                for got, full, k in ((out[2], run[2], 1), (out[3], run[3], 0)):
                    if k in mode[cut]:
                        assert got.tobytes() == full.tobytes()


def _packed_from_numpy_eig(a):
    """Sorted eigenvalues, partners and packed matrix, built from ``np.linalg.eig``'s output.

    The Im column of a pair is the imaginary part of the Im > 0 member's own
    eigenvector, which is LAPACK's column j + 1 of that pair.
    """
    lam, v = np.linalg.eig(a)
    lam = lam.astype(complex)
    order = spectral._sort_order(lam)
    partners = spectral._conjugate_partners(lam[order])
    up = np.flatnonzero(lam[order].imag > 0)
    packed = np.take(v.real, order, axis=1)
    packed[:, partners[up]] = v.imag[:, order[up]]
    return lam[order], partners, packed


_PAIR = np.array([[1.0, 2.0], [-2.0, 1.0]])  # 1 +- 2i, already in real Schur form
EIG_CASES = {
    "pairs": np.random.default_rng(7).normal(size=(9, 9)),
    "all-real": np.triu(np.random.default_rng(8).normal(size=(6, 6))),
    "1x1": np.array([[-0.5]]),
    "repeated-pair": sla.block_diag(_PAIR, [[-0.5]], _PAIR),
}


def _blas_state():
    """numpy's BLAS thread count (None without the binding) and the live Python threads."""
    return (spectral._BLAS_THREADS() if spectral._BLAS_THREADS else None), threading.active_count()


class TestEigensolve:
    """The block eigensolve: numpy's ``dgeev`` through ``ctypes``, concurrent across blocks."""

    @pytest.mark.parametrize("bound", [True, False])
    @pytest.mark.parametrize("case", EIG_CASES)
    def test_packed_matrix_matches_numpy_eig(self, case, bound, monkeypatch):
        a = EIG_CASES[case]
        if not bound:
            monkeypatch.setattr(spectral, "_DGEEV", None)
        lam, partners, packed = spectral._pack(*spectral._block_eig(sp.csc_matrix(a)))
        ref_lam, ref_partners, ref_packed = _packed_from_numpy_eig(a)
        assert (np.count_nonzero(lam.imag) > 0) == (case in ("pairs", "repeated-pair"))
        if case == "repeated-pair":
            assert np.count_nonzero(lam == lam[1]) == 2  # exactly repeated
        assert np.array_equal(lam, ref_lam)
        assert np.array_equal(partners, ref_partners)
        assert packed.flags.c_contiguous
        assert np.max(np.abs(packed - ref_packed)) <= 1e-13

    @pytest.mark.parametrize("bad", [0, 1])
    def test_non_finite_block_raises(self, bad):
        # block 0 runs on the calling thread and block 1 on a worker
        before = _blas_state()
        good = sp.csc_matrix(EIG_CASES["pairs"])
        broken = good.copy()
        broken.data[3] = np.nan
        subs = [good, good]
        subs[bad] = broken
        with pytest.raises(NoConvergence):
            spectral._eigensolve(subs)
        with pytest.raises(NoConvergence):
            spectral._eigensolve([broken])
        assert _blas_state() == before

    def test_identical_blocks(self):
        sub = sp.csc_matrix(np.random.default_rng(9).normal(size=(40, 40)))
        (lam, vr), *rest = spectral._eigensolve([sub, sub.copy(), sub])
        for lam_c, vr_c in rest:
            assert np.array_equal(lam_c, lam) and np.array_equal(vr_c, vr)

    def test_decompose_restores_blas_threads(self):
        before = _blas_state()
        sup = build_liouvillian(dicke_model(DICKE_REF, 6))
        decompose(sup)
        broken = sup.matrix.copy()
        broken.data[0] = np.nan
        with pytest.raises(NoConvergence):
            decompose(Superoperator(matrix=broken, kind="generator"))
        assert _blas_state() == before

    def test_mapped_bytes_count_without_lost_updates(self):
        # buffers made and freed on more threads than cores, switching often
        live = spectral._MAPPED["live"]

        def churn(k):
            for i in range(2000):
                spectral._mapped((k + 1, i % 7 + 1))
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                assert all(pool.map(churn, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert spectral._MAPPED["live"] == live
        assert spectral._MAPPED["peak"] >= live + 8

    def test_decompose_from_two_threads(self):
        # each concurrent eigensolve sets and restores the process's count
        before = _blas_state()
        sup = build_liouvillian(dicke_model(DICKE_REF, 6))
        lam = decompose(sup).eigenvalues
        with ThreadPoolExecutor(2) as pool:
            for dec in pool.map(lambda _: decompose(sup), range(6), timeout=60):
                assert np.max(np.abs(dec.eigenvalues - lam)) <= 1e-12 * np.max(np.abs(lam))
        assert _blas_state() == before

    @pytest.mark.parametrize("name", ["dicke", "all-to-all"])
    def test_unbound_fallback_gives_the_same_spectrum(self, name, monkeypatch):
        model = dicke_model(DICKE_REF, 6) if name == "dicke" else all_to_all_model(ALL_TO_ALL_REF, 6)
        sup = build_liouvillian(model)
        lam = decompose(sup).eigenvalues
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(spectral, "_DGEEV", None)
        monkeypatch.setattr(spectral.np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
        dec = decompose(sup)
        assert len(calls) == len(dec.blocks)
        assert np.max(np.abs(dec.eigenvalues - lam)) <= 1e-12 * np.max(np.abs(lam))

    def test_numpy_openblas_is_bound(self, monkeypatch):
        # a numpy that renames a symbol would otherwise fall back silently
        # to sequential np.linalg.eig calls and lose the concurrency
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") != "scipy-openblas":
            pytest.skip(f"numpy links {blas.get('name')}, not scipy-openblas")
        assert spectral._DGEEV is not None
        threads = []
        block_eig = spectral._block_eig

        def recording(sub):
            threads.append(threading.get_ident())
            return block_eig(sub)

        monkeypatch.setattr(spectral, "_block_eig", recording)
        dec = decompose(build_liouvillian(dicke_model(DICKE_REF, 6)))
        assert len(threads) == len(dec.blocks) == 2
        if spectral._BLAS_THREADS() > 1:
            assert len(set(threads)) == 2


class TestOneBlasPool:
    """decompose and a trajectory run without any scipy.linalg LAPACK call.

    numpy and scipy each load their own OpenBLAS with its own thread pool;
    the dense eigensolves and inverses go through numpy's and the polish
    through a sparse LU, so scipy's pool never competes with numpy's.
    """

    @pytest.fixture()
    def factored(self, monkeypatch):
        """Make the scipy.linalg kernels fail the test; record the dtype of each splu."""
        for name in ("eig", "inv", "lu_factor", "lu_solve"):
            monkeypatch.setattr(sla, name, lambda *a, _name=name, **k: pytest.fail(
                f"scipy.linalg.{_name} called"))
        dtypes = []
        splu = spectral.splu

        def recording(a, *args, **kwargs):
            dtypes.append(a.dtype)
            return splu(a, *args, **kwargs)

        monkeypatch.setattr(spectral, "splu", recording)
        return dtypes

    def test_dicke_real_slow_modes(self, factored, monkeypatch):
        model = dicke_model(DICKE_REF, 4)
        dec = decompose(build_liouvillian(model))
        assert dec.eigenvalues[1].imag == 0 and np.float64 in factored
        monkeypatch.setattr(dynamics, "AGREEMENT_TOL", -1.0)  # exact action over the whole grid
        psi = random_pure_state(4, 1)
        traj = robust_trajectory(model, dec, np.outer(psi, psi.conj()),
                                 TimeGrid.linear(0.0, 4.0 * dec.tau, 41))
        assert traj.source == "hybrid" and np.all(np.isfinite(traj.distances))

    def test_all_to_all_complex_pair(self, factored):
        dec = decompose(build_liouvillian(all_to_all_model(ALL_TO_ALL_REF, 4)))
        assert dec.eigenvalues[2].imag != 0 and np.complex128 in factored


def _basis_changed_generator(plan, matrix):
    """``(A, mu, |A|_1)`` of ``_real_generator``, from a basis change of the input ``matrix``."""
    a = (plan.basis_conj @ matrix @ plan.basis.T).real
    mu = float(a.diagonal().mean())
    a = a - mu * sp.identity(a.shape[0], format="csr")
    return a, mu, float(abs(a).sum(axis=0).max())


def _assert_same_csr(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()


class TestKeptGenerator:
    """The real generator that ``decompose`` keeps is the basis change of its input."""

    @staticmethod
    def _check(dec, sup):
        plan = dec.packed
        # the raw product lists each row's columns unsorted; sorting them moves
        # no value and no row, and gives the kept matrix bit for bit
        product = (plan.basis_conj @ sup.matrix @ plan.basis.T).real.sorted_indices()
        assert plan.generator.has_canonical_format
        _assert_same_csr(plan.generator, product)
        a, mu, norm = dynamics._real_generator(dec)
        a_ref, mu_ref, norm_ref = _basis_changed_generator(plan, sup.matrix)
        _assert_same_csr(a, a_ref)
        assert (mu, norm) == (mu_ref, norm_ref)

    @pytest.mark.parametrize("name", ["dicke", "all-to-all"])
    def test_reference_models(self, both_models6, name):
        model, dec = both_models6[name]
        self._check(dec, build_liouvillian(model))

    @settings(max_examples=30, deadline=None)
    @random_models
    def test_random_models(self, d, n_jumps, planted, seed):
        dec, sup = _random_decomposition(d, n_jumps, planted, seed)
        assume(dec is not None)
        self._check(dec, sup)


class TestCoordinates:
    """One real layout: the basis coordinates ``Tr(B_a X)`` that ``decompose`` solves in."""

    @settings(max_examples=30, deadline=None)
    @random_models
    def test_maps_of_a_hermitian_matrix(self, d, n_jumps, planted, seed):
        dec, _ = _random_decomposition(d, n_jumps, planted, seed)
        assume(dec is not None)
        rng = np.random.default_rng(seed)
        plan = dec.packed
        x_h, ell = random_hermitian(d, rng), rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = plan.coordinates(x_h)
        # each block's slice holds the coordinates on the basis rows of its support
        basis = hermitian_operator_basis_rows(d)
        first = basis.indices[basis.indptr[:-1]]  # first support position of each row
        for coords, *_ in plan.blocks:
            rows = np.flatnonzero(np.isin(first, plan.basis[coords].indices))
            assert np.array_equal(x[coords], (basis[rows].conj() @ vec(x_h)).real)
        # the basis is orthonormal: the Frobenius norm is the Euclidean one
        frobenius = np.linalg.norm(x_h)
        assert abs(plan.norms(x[None])[0] - frobenius) <= 1e-14 * frobenius
        trace = np.einsum("ij,ji->", ell, x_h)
        assert abs(plan.trace_row(ell) @ x - trace) <= 1e-14 * np.sum(np.abs(ell)) * np.max(np.abs(x_h))
        back = plan.hermitian(x[None])[0]
        assert np.array_equal(back, back.conj().T)
        assert np.max(np.abs(back - x_h)) <= 1e-15 * np.max(np.abs(x_h))


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

    def test_real_spectrum_blocks_come_back_complex(self):
        # both blocks (populations, coherences) have real spectra, for which
        # the eigensolver returns real arrays; lambda = 0, -g/2, -g/2, -g
        with pytest.raises(DegenerateSlowMode) as err:
            decompose(build_liouvillian(qubit_decay_model(kappa=2.0)))
        dec = err.value.decomposition
        assert len(dec.blocks) == 2
        assert dec.eigenvalues.dtype == complex
        assert np.max(np.abs(dec.eigenvalues - [0.0, -1.0, -1.0, -2.0])) <= 1e-14

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


class TestStationaryState:
    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        planted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unit_trace_and_positive(self, d, n_jumps, planted, seed):
        rng = np.random.default_rng(seed)
        try:
            dec = decompose(build_liouvillian(random_lindblad_model(d, n_jumps, rng, planted)))
        except AssumptionViolation as exc:
            dec = exc.decomposition
        assume(dec is not None)  # no unique stationary state
        rho = dec.stationary_state
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.array_equal(rho, rho.conj().T)
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10
        assert dec.diagnostics.stationary_min_eigenvalue >= -1e-10


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


def _held_arrays(obj):
    """Every ndarray that a decomposition's fields hold, through its packed form and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _held_arrays(getattr(obj, field.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _held_arrays(item)


FULL_ARRAYS = {"left_modes", "right_modes"}


class TestStorage:
    """A decomposition stores its modes packed: no array the size of m x d x d complex."""

    def _assert_packed_only(self, dec):
        m, d = dec.eigenvalues.size, dec.dim
        assert not FULL_ARRAYS & vars(dec).keys()
        assert max(a.nbytes for a in _held_arrays(dec)) < 16 * m * d * d

    @pytest.mark.parametrize("name", ["dicke", "all-to-all"])
    def test_reference_models_n20(self, name):
        model = dicke_model(DICKE_REF, 20) if name == "dicke" else all_to_all_model(ALL_TO_ALL_REF, 20)
        self._assert_packed_only(decompose(build_liouvillian(model)))

    @settings(max_examples=30, deadline=None)
    @random_models
    def test_random_models(self, d, n_jumps, planted, seed):
        dec, _ = _random_decomposition(d, n_jumps, planted, seed)
        assume(dec is not None)
        self._assert_packed_only(dec)

    def test_library_paths_build_no_full_array(self):
        from qmpemba import TimeGrid, optimal_unitary, overlap_scan, random_pure_state
        from qmpemba import robust_trajectory

        model = dicke_model(DICKE_REF, 6)
        dec = decompose(build_liouvillian(model))
        psi = random_pure_state(6, 2)
        rot = optimal_unitary(dec, psi)
        overlap_scan(dec, psi, np.linspace(0.0, np.pi / 2, 5))
        for state in (psi, rot.unitary @ psi):
            robust_trajectory(model, dec, np.outer(state, state.conj()),
                              TimeGrid.linear(0.0, 4.0 * dec.tau, 41))
        self._assert_packed_only(dec)

    def test_reproduce_fig2_builds_no_full_array(self, tmp_path, monkeypatch):
        from qmpemba import cli

        made = []

        def recording(*args, **kwargs):
            made.append(decompose(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(cli, "decompose", recording)
        assert cli.main(["reproduce", "fig2", "--n", "6", "--out", str(tmp_path)]) in (0, 1)
        assert len(made) == 1
        self._assert_packed_only(made[0])

    @pytest.mark.parametrize("name", ["dicke", "all-to-all"])
    def test_decompose_peak_memory_n20(self, name, monkeypatch):
        # the peak of decompose in dense-block equivalents 8 n_max^2 bytes,
        # n_max the largest block (221 on dicke, 441 on all-to-all), over the
        # traced heap plus the mapped eigensolve buffers, which tracemalloc
        # does not see: at every change of the mapped bytes, the traced peak
        # since the previous change is added to the mapped bytes live
        # meanwhile.  Finishing each block in complex arithmetic peaked at
        # 12.9 (dicke) and 10.5 (all-to-all); the real finish measured 6.4
        # and 4.1, and with the mapped eigensolve 6.4 and 3.9.  The two peaks
        # summed would read 11.5 and 6.2, but they are never live at once
        model = dicke_model(DICKE_REF, 20) if name == "dicke" else all_to_all_model(ALL_TO_ALL_REF, 20)
        sup = build_liouvillian(model)
        count, live, peak = spectral._count_mapped, spectral._MAPPED["live"], [0]

        def counted(nbytes):
            traced = tracemalloc.get_traced_memory()[1] - base
            peak[0] = max(peak[0], traced + spectral._MAPPED["live"] - live)
            tracemalloc.reset_peak()
            count(nbytes)

        monkeypatch.setattr(spectral, "_count_mapped", counted)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            spectral._MAPPED["peak"] = live
            dec = decompose(sup)
            counted(0)
        finally:
            tracemalloc.stop()
        n_max = max(modes.size for modes in dec.blocks)
        assert peak[0] <= 8.0 * 8 * n_max**2
        assert spectral._MAPPED["live"] == live  # every mapped buffer is unmapped
        if spectral._DGEEV is not None:  # the mapped block and VR were counted
            assert spectral._MAPPED["peak"] - live >= 2 * 8 * n_max**2

    def test_full_arrays_expand_the_packed_form(self, all_to_all6):
        _, dec = all_to_all6
        dec = dataclasses.replace(dec)  # a fresh copy: nothing expanded yet
        left, right = dec.left_modes, dec.right_modes
        assert dec.left_modes is left and dec.right_modes is right  # kept
        assert left.shape == right.shape == (dec.eigenvalues.size, dec.dim, dec.dim)
        assert np.array_equal(left[:2], dec.leading_left)
        assert np.array_equal(right[0], dec.stationary_state)
        # the expanded modes give back the packed right rows and coefficients
        plan = dec.packed
        x_h = random_hermitian(dec.dim, RNG)
        for modes, (coords, lam, l_rows, r_rows, _) in zip(dec.blocks, plan.blocks):
            units = modes[(dec.eigenvalues[modes].imag >= 0) & (modes != 0)]
            x = plan.coordinates(x_h)[coords]
            for u, k in enumerate(units):
                r, ell = right[k], left[k]
                herm = plan.coordinates(r + r.conj().T)[coords] / (2 if lam[u].imag == 0 else 1)
                assert np.max(np.abs(r_rows[2 * u] - herm)) <= 1e-15 * np.max(np.abs(r))
                packed = (l_rows[2 * u] + 1j * l_rows[2 * u + 1]) @ x
                full = np.einsum("ij,ji->", ell, x_h)
                assert abs(packed - full) <= 1e-14 * np.sum(np.abs(ell)) * np.max(np.abs(x_h))


class TestHermitizeSlowMode:
    def test_clean_input_unchanged(self, dicke6):
        _, dec = dicke6
        ell2 = hermitize_slow_mode(dec)
        assert np.max(np.abs(ell2 - dec.left_modes[1])) < 1e-12
        assert np.array_equal(ell2, ell2.conj().T)

    def _doctored(self, dec, eps):
        leading = dec.leading_left.copy()
        bump = np.zeros_like(leading[1])
        bump[0, -1] = eps * np.max(np.abs(leading[1]))
        leading[1] = leading[1] + (bump - bump.conj().T) / 2
        return dataclasses.replace(dec, leading_left=leading)

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
        c = dec.left_modes.reshape(dec.dim**2, -1) @ vec(dec.stationary_state)
        assert abs(c[0] - 1) < 1e-8
        assert np.max(np.abs(c[1:])) < 1e-8

    def test_normalization_component(self, dicke6):
        _, dec = dicke6
        rho = random_density(dec.dim, RNG)
        c = dec.left_modes.reshape(dec.dim**2, -1) @ vec(rho)
        assert abs(c[0] - 1) < 1e-10

    def test_reconstruction(self, dicke6):
        _, dec = dicke6
        rho = random_density(dec.dim, RNG)
        c = dec.left_modes.reshape(dec.dim**2, -1) @ vec(rho)
        rec = np.tensordot(c, dec.right_modes, axes=(0, 0))
        assert np.max(np.abs(rec - rho)) < 1e-8


class TestOverlapDecayLaw:
    def test_single_mode_decay(self, all_to_all6):
        from qmpemba import TimeGrid, evolve_spectral_grid

        _, dec = all_to_all6
        rho0 = random_density(dec.dim, RNG)
        c0 = dec.left_modes.reshape(dec.dim**2, -1) @ vec(rho0)
        grid = TimeGrid(points=np.array([0.3, 1.1]))
        for t, rho_t in zip(grid.points, evolve_spectral_grid(dec, rho0, grid)):
            rho_t = rho_t / np.trace(rho_t).real
            c_t = dec.left_modes.reshape(dec.dim**2, -1) @ vec(rho_t)
            for k in range(1, 6):
                expected = np.exp(t * dec.eigenvalues[k]) * c0[k]
                assert abs(c_t[k] - expected) < 1e-8 * max(1, abs(c0[k]))
