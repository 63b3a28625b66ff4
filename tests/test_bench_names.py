"""The names that the benchmark rebinds to time the program's layers.

``bench/workloads.py`` records its spans by rebinding module-held functions
(``TRACED``) and the LAPACK calls that ``qmpemba.spectral`` reaches through
its ``sla`` name (``KERNELS``).  A rename in the package would otherwise only
show when the benchmark itself runs.  A name that still exists but is no
longer called would make its span read 0 without any error, so the spans
that time the per-state work are also checked to be reached, by counting
the calls that one library call makes through the rebound names.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

import qmpemba
from qmpemba import dynamics, spectral

from conftest import DICKE_REF

BENCH = Path(__file__).resolve().parents[1] / "bench"

pytestmark = pytest.mark.skipif(
    not (BENCH / "workloads.py").is_file(), reason="checkout has no bench/"
)


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_traced_names_exist(workloads):
    missing = [
        f"qmpemba{'.' + holder if holder else ''}.{attr}"
        for _, attr, holders in workloads.TRACED
        for holder in holders
        if not hasattr(workloads._holder(holder), attr)
    ]
    assert not missing


def test_kernel_names_exist(workloads):
    missing = [attr for _, attr in workloads.KERNELS if not hasattr(spectral.sla, attr)]
    assert not missing


def _count_calls(workloads, monkeypatch, span):
    """Wrap every name the benchmark rebinds for ``span``; the list grows by one per call."""
    calls = []
    for name, attr, holders in workloads.TRACED:
        if name != span:
            continue
        for holder in holders:
            module = workloads._holder(holder)
            real = getattr(module, attr)

            def counted(*args, _real=real, **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)
    return calls


def _count_kernel(workloads, monkeypatch, attr):
    """Count the calls that ``spectral`` makes to ``sla.<attr>``, one of the ``KERNELS``.

    Like the benchmark, this rebinds ``spectral.sla`` to a namespace that
    holds the wrapped kernel.
    """
    assert attr in {a for _, a in workloads.KERNELS}
    if not isinstance(spectral.sla, types.SimpleNamespace):
        monkeypatch.setattr(spectral, "sla", types.SimpleNamespace(**vars(spectral.sla)))
    calls = []
    real = getattr(spectral.sla, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    setattr(spectral.sla, attr, counted)
    return calls


def test_decompose_reaches_its_spans(workloads, monkeypatch):
    # the dense eigensolves run on numpy's LAPACK and the polish on a sparse
    # LU, so decompose reaches none of the scipy.linalg kernels and their
    # spans read 0; one inverse per block
    kernels = {attr: _count_kernel(workloads, monkeypatch, attr) for _, attr in workloads.KERNELS}
    inverse = _count_calls(workloads, monkeypatch, "linalg.refined_inverse")
    basis = _count_calls(workloads, monkeypatch, "spectral.basis_rows")
    dec = qmpemba.decompose(qmpemba.build_liouvillian(qmpemba.dicke_model(DICKE_REF, 4)))
    assert len(dec.blocks) == 2
    assert {attr: len(calls) for attr, calls in kernels.items()} == dict.fromkeys(kernels, 0)
    assert len(inverse) == 2
    # the basis is built once and kept by the packed modes
    assert len(basis) == 1


@pytest.fixture(scope="module")
def dicke4():
    model = qmpemba.dicke_model(DICKE_REF, 4)
    return model, qmpemba.decompose(qmpemba.build_liouvillian(model))


@pytest.mark.parametrize("exact_throughout", [False, True])
def test_trajectory_reaches_its_spans(workloads, monkeypatch, dicke4, exact_throughout):
    model, dec = dicke4
    if exact_throughout:  # the routes never agree: exact action over the whole grid
        monkeypatch.setattr(dynamics, "AGREEMENT_TOL", -1.0)
    trajectory = _count_calls(workloads, monkeypatch, "dynamics.robust_trajectory")
    mode_sum = _count_calls(workloads, monkeypatch, "dynamics.mode_sum")
    distance = _count_calls(workloads, monkeypatch, "dynamics.hs_distance")
    basis = _count_calls(workloads, monkeypatch, "spectral.basis_rows")
    psi = qmpemba.random_pure_state(4, 1)
    grid = qmpemba.TimeGrid.linear(0.0, 4.0 * dec.tau, 101)
    traj = qmpemba.robust_trajectory(model, dec, np.outer(psi, psi.conj()), grid)
    assert traj.source == ("hybrid" if exact_throughout else "spectral")
    assert len(trajectory) == 1
    # a trajectory sums its coordinate rows and reduces them itself: the
    # states function and hs_distance, which those two spans wrap, are not
    # reached, so the spans read 0 on trajectories
    assert len(mode_sum) == 0
    assert len(distance) == 0
    # the coordinates of the states go through the basis that the
    # decomposition keeps, so a trajectory builds none
    assert len(basis) == 0


def test_overlap_scan_reaches_slow_mode_spectrum(workloads, monkeypatch):
    # a fresh decomposition: the shared one keeps the spectrum that other
    # tests built.  The rotation builds it and the scan of the same
    # decomposition reuses it, so the span counts one call for both
    dec = qmpemba.decompose(qmpemba.build_liouvillian(qmpemba.dicke_model(DICKE_REF, 4)))
    spectra = _count_calls(workloads, monkeypatch, "mpemba.slow_mode_spectrum")
    psi = qmpemba.random_pure_state(4, 1)
    qmpemba.optimal_unitary(dec, psi)
    qmpemba.overlap_scan(dec, psi, np.linspace(0.0, 1.0, 5))
    assert len(spectra) == 1


def test_state_gate_reads_the_slow_mode_once(workloads, monkeypatch):
    # check_state reads dec.left_modes[1] for its residual gate: it must be
    # bitwise the l2 that the rotation is built from, and the full array
    # behind it must be expanded once per decomposition, not once per state
    model = qmpemba.dicke_model(DICKE_REF, 4)
    dec = qmpemba.decompose(qmpemba.build_liouvillian(model))
    expansions = []
    full_modes = spectral._full_modes

    def counted(*args, **kwargs):
        expansions.append(1)
        return full_modes(*args, **kwargs)

    monkeypatch.setattr(spectral, "_full_modes", counted)
    for seed in (1, 2):
        assert not workloads.check_state(model, dec, qmpemba.random_pure_state(4, seed)).failed
    assert len(expansions) == 1
    ell2 = dec.leading_left[1]
    assert dec.left_modes[1].tobytes() == ell2.tobytes()
    assert np.array_equal(qmpemba.hermitize_slow_mode(dec), (ell2 + ell2.conj().T) / 2)
    assert dec.left_modes is dec.left_modes
