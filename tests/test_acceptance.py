"""Acceptance suite: every top-level criterion at its stated tolerance.

Each criterion prints one ``[acceptance] ... PASS/FAIL`` line (run with
``pytest -s tests/test_acceptance.py`` to see them live).  The reference
models are the two N=40 collective-spin systems; expensive decompositions are
shared through session fixtures.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ALL_TO_ALL_REF, DICKE_REF, conjugation_closure_residual, qubit_decay_model

import qmpemba
from qmpemba import (
    TimeGrid,
    adiabatic_coefficients,
    all_to_all_model,
    build_adjoint_liouvillian,
    build_liouvillian,
    decompose,
    dicke_model,
    evolve_integrator,
    evolve_spectral_grid,
    find_plateau,
    fit_decay_rate,
    optimal_unitary,
    overlap_scan,
    random_pure_state,
    robust_trajectory,
)
from qmpemba.dynamics import FIT_WINDOW_ROTATED, FIT_WINDOW_UNROTATED

RNG = np.random.default_rng(20240506)

# slow eigenvalues of the two reference models at N=40, frozen from this
# build as regression constants
REFERENCE_N40 = {
    "dicke": (-0.00953790558029497, -0.02995282424843771),
    "all-to-all": (-0.012251324865034111, complex(-0.19537103614822932, 1.7024791697141686)),
}


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def _model(name: str, n: int):
    if name == "dicke":
        return dicke_model(DICKE_REF, n)
    return all_to_all_model(ALL_TO_ALL_REF, n)


@pytest.fixture(scope="session")
def all_to_all40():
    model = _model("all-to-all", 40)
    return model, decompose(build_liouvillian(model))


@pytest.fixture(scope="session")
def both40(dicke40, all_to_all40):
    return {"dicke": dicke40, "all-to-all": all_to_all40}


def test_criterion_1_accelerated_relaxation_rates(dicke40):
    """Fitted decay rates match |lambda_2| (plain) and |Re lambda_3| (rotated)."""
    model, dec = dicke40
    lam = dec.eigenvalues
    psi = random_pure_state(40, seed=1)
    rot = optimal_unitary(dec, psi)

    rho0 = np.outer(psi, psi.conj())
    grid = TimeGrid.linear(0.0, 16.0 / abs(lam[1].real), 801)
    traj = robust_trajectory(model, dec, rho0, grid)
    fit_un = fit_decay_rate(traj.times, traj.distances, FIT_WINDOW_UNROTATED)

    psi_rot = rot.unitary @ psi
    rho_rot = np.outer(psi_rot, psi_rot.conj())
    grid_rot = TimeGrid.linear(0.0, 16.0 / abs(lam[2].real), 801)
    traj_rot = robust_trajectory(model, dec, rho_rot, grid_rot)
    fit_rot = fit_decay_rate(traj_rot.times, traj_rot.distances, FIT_WINDOW_ROTATED)

    ratio_un = fit_un.rate / abs(lam[1].real)
    ratio_rot = fit_rot.rate / abs(lam[2].real)
    ok = _report(
        "1 relaxation-rate reproduction (N=40 driven-spin ensemble)",
        0.95 <= ratio_un <= 1.05 and 0.95 <= ratio_rot <= 1.05,
        f"plain {ratio_un:.4f}, rotated {ratio_rot:.4f} of target (5% band)",
    )
    assert ok


def test_criterion_2_metastability_avoided(all_to_all40):
    """Plateau in the plain trajectory; rotated state 10x closer at its end."""
    model, dec = all_to_all40
    lam = dec.eigenvalues
    rate2, rate3 = abs(lam[1].real), abs(lam[2].real)
    ordering = rate2 < rate3

    psi = random_pure_state(40, seed=1)
    rot = optimal_unitary(dec, psi)
    rho0 = np.outer(psi, psi.conj())
    psi_rot = rot.unitary @ psi
    rho_rot = np.outer(psi_rot, psi_rot.conj())
    grid = TimeGrid.geometric(1e-2 / rate3, 16.0 / rate2, 801, include_zero=True)
    traj_un = robust_trajectory(model, dec, rho0, grid)
    traj_rot = robust_trajectory(model, dec, rho_rot, grid)

    span = 1.0 / rate3
    plateau = find_plateau(traj_un.times, traj_un.distances, span)
    ratio_end = None
    if plateau is not None:
        _, j = plateau
        ratio_end = traj_un.distances[j] / traj_rot.distances[j]
    ok = _report(
        "2 metastable plateau avoided (N=40 interacting ensemble)",
        ordering and plateau is not None and ratio_end >= 10.0,
        f"|Re l3|/|Re l2| = {rate3 / rate2:.2f}, "
        f"plateau={'yes' if plateau else 'no'}, end ratio={ratio_end and f'{ratio_end:.1f}'}",
    )
    assert ok


def test_criterion_3_orthogonality_postcondition(both40):
    """100 seeded states per model: overlap removed, unitary exact."""
    worst_res, worst_uni = 0.0, 0.0
    ok = True
    for name, (model, dec) in both40.items():
        scale = float(np.max(np.abs(dec.leading_left[1])))
        ell2 = dec.leading_left[1]
        for seed in range(100):
            psi = random_pure_state(40, seed)
            rot = optimal_unitary(dec, psi)
            u = rot.unitary
            uni = float(np.max(np.abs(u.conj().T @ u - np.eye(41))))
            worst_res = max(worst_res, rot.residual_overlap / scale)
            worst_uni = max(worst_uni, uni)
            ok = ok and rot.residual_overlap <= 1e-9 * scale and uni <= 1e-10
    ok = _report(
        "3 rotated states orthogonal to the slow mode (100 seeds x 2 models)",
        ok,
        f"worst residual {worst_res:.2e} (tol 1e-9), worst unitarity {worst_uni:.2e} (tol 1e-10)",
    )
    assert ok


def test_criterion_4_two_level_overlap_law(both40):
    """Scan equals a1 cos^2 s + an sin^2 s pointwise, endpoints and zero at s_bar."""
    worst = 0.0
    ok = True
    for name, (model, dec) in both40.items():
        psi = random_pure_state(40, seed=1)
        rot = optimal_unitary(dec, psi)
        a1, an = rot.slow_spectrum.alpha_1, rot.slow_spectrum.alpha_n
        s_bar = rot.s_bar
        grid = np.linspace(0.0, np.pi / 2, 201)
        scan = overlap_scan(dec, psi, grid)
        dev = max(
            abs(val - (a1 * np.cos(s) ** 2 + an * np.sin(s) ** 2)) for s, val in scan
        )
        worst = max(worst, dev)
        at_sbar = abs(overlap_scan(dec, psi, [s_bar])[0][1])
        expected_sbar = np.arctan(np.sqrt(abs(a1 / an)))
        ok = (
            ok
            and dev <= 1e-10
            and abs(scan[0][1] - a1) <= 1e-10
            and abs(scan[-1][1] - an) <= 1e-10
            and at_sbar <= 1e-10
            and abs(s_bar - expected_sbar) <= 1e-12
        )
    ok = _report(
        "4 overlap scan follows the two-level law",
        ok,
        f"worst pointwise deviation {worst:.2e} (tol 1e-10)",
    )
    assert ok


def test_criterion_5_oracle_equivalence():
    """Spectral propagation vs direct RK4 at N=8, plus the analytic qubit decay."""
    worst = 0.0
    for name in ("dicke", "all-to-all"):
        model = _model(name, 8)
        dec = decompose(build_liouvillian(model))
        psi = random_pure_state(8, seed=2)
        rho0 = np.outer(psi, psi.conj())
        grid = TimeGrid.linear(0.0, 10.0, 50)
        direct = evolve_integrator(model, rho0, grid)
        spectral = evolve_spectral_grid(dec, rho0, grid)
        worst = max(worst, float(np.max(np.abs(direct - spectral))))

    kappa = 1.0
    model = qubit_decay_model(kappa)
    rho0 = np.array([[0, 0], [0, 1]], dtype=complex)
    grid = TimeGrid.linear(0.0, 3.0, 31)
    states = evolve_integrator(model, rho0, grid)
    qubit_err = max(
        abs(states[i][1, 1].real - np.exp(-kappa * t)) for i, t in enumerate(grid.points)
    )
    ok = _report(
        "5 two independent propagation routes agree",
        worst <= 1e-6 and qubit_err <= 1e-6,
        f"max state difference {worst:.2e}, analytic qubit error {qubit_err:.2e} (tol 1e-6)",
    )
    assert ok


@pytest.mark.parametrize("n", [4, 8, 20, 40])
@pytest.mark.parametrize("name", ["dicke", "all-to-all"])
def test_criterion_6_structural_invariants(name, n, both40):
    """Preservation laws, biorthonormality, positivity, conjugate closure."""
    if n == 40:
        model, dec = both40[name]
    else:
        model = _model(name, n)
        dec = decompose(build_liouvillian(model))
    sup = build_liouvillian(model)
    adj = build_adjoint_liouvillian(model)
    d = model.dim
    failures = []

    trace_dev = herm_dev = dual_dev = 0.0
    for _ in range(20):
        x = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        x_h = (x + x.conj().T) / 2
        scale_x = max(np.max(np.abs(x_h)), 1.0)
        trace_dev = max(trace_dev, abs(np.trace(sup.apply(x_h))) / scale_x)
        herm_dev = max(
            herm_dev,
            float(np.max(np.abs(sup.apply(x).conj().T - sup.apply(x.conj().T))))
            / max(np.max(np.abs(x)), 1.0),
        )
        o = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        lhs = np.trace(adj.apply(o) @ x)
        rhs = np.trace(o @ sup.apply(x))
        dual_dev = max(dual_dev, abs(lhs - rhs) / max(abs(lhs), 1.0))
    if trace_dev > 1e-10:
        failures.append(f"trace preservation {trace_dev:.2e}")
    if herm_dev > 1e-12:
        failures.append(f"hermiticity preservation {herm_dev:.2e}")
    if dual_dev > 1e-10:
        failures.append(f"duality pairing {dual_dev:.2e}")

    biorth = dec.diagnostics.biorthonormality_residual
    if biorth > 1e-8:
        failures.append(f"biorthonormality {biorth:.2e}")
    if dec.diagnostics.stationary_min_eigenvalue < -1e-10:
        failures.append(f"positivity {dec.diagnostics.stationary_min_eigenvalue:.2e}")
    closure = conjugation_closure_residual(dec.eigenvalues, dec.diagnostics.tol_imag)
    if closure > 1e-8 * np.max(np.abs(dec.eigenvalues)):
        failures.append(f"conjugate closure {closure:.2e}")

    ok = _report(
        f"6 structural invariants [{name} N={n}]",
        not failures,
        "; ".join(failures) if failures else f"biorthonormality {biorth:.2e}",
    )
    assert ok, "; ".join(failures)


def test_reference_spectra_frozen(both40):
    """Clean assumption flags and pinned slow eigenvalues at N=40."""
    ok = True
    for name, (model, dec) in both40.items():
        lam2_ref, lam3_ref = REFERENCE_N40[name]
        ok = (
            ok
            and dec.diagnostics.flags.clean
            and dec.eigenvalues[1].imag == 0.0
            and np.isfinite(dec.tau)
            and dec.eigenvalues[1] == pytest.approx(lam2_ref, rel=1e-6)
            and dec.eigenvalues[2] == pytest.approx(lam3_ref, rel=1e-6)
        )
    ok = _report(
        "regression: frozen N=40 slow eigenvalues and clean flags", ok,
        f"tau(dicke)={both40['dicke'][1].tau:.4f}, "
        f"tau(all-to-all)={both40['all-to-all'][1].tau:.4f}",
    )
    assert ok


def test_criterion_7_boson_elimination_coefficients():
    """Closed-form coefficients at the reference point: 0.8 and 2/sqrt(5)."""
    chi, pref = adiabatic_coefficients(DICKE_REF)
    ok = _report(
        "7 boson-elimination coefficients",
        chi == pytest.approx(0.8, abs=1e-15) and pref == pytest.approx(2 / np.sqrt(5), abs=1e-15),
        f"chi={chi!r}, prefactor={pref!r}",
    )
    assert ok


def test_criterion_8_runtime_budget(tmp_path):
    """Both bundled reference experiments complete within ten minutes."""
    # the CLI runs in a child that imports the package this process imported,
    # installed or from the src/ directory of a checkout
    package_root = str(Path(qmpemba.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    start = time.monotonic()
    codes = []
    for figure in ("fig2", "fig3"):
        proc = subprocess.run(
            [sys.executable, "-m", "qmpemba.cli", "reproduce", figure,
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=900,
            env=dict(os.environ, PYTHONPATH=path),
        )
        codes.append(proc.returncode)
    elapsed = time.monotonic() - start
    ok = _report(
        "8 runtime budget for both reference bundles",
        elapsed < 600.0 and codes == [0, 0],
        f"{elapsed:.1f}s for fig2+fig3 (limit 600s), exit codes {codes}",
    )
    assert ok
