"""The three workloads and their correctness gates.

``fig2`` and ``fig3`` run ``qmpemba reproduce <figure>`` in process through
``qmpemba.cli.main``; one pass is a fixed number of bundles, each on its own
program seed.  ``states`` drives the library API: one pass builds and
decomposes the N=20 dicke model once, then carries a fixed number of random
pure states through the rotation, the overlap scan and two trajectories
each.  Every pass of a run gets the same inputs, so the work of a pass does
not depend on how many passes fit in the time.  The program only ever sees
seeds derived here from the workload seed.
"""

from __future__ import annotations

import importlib
import json
import shutil
import time
import traceback
import types
import warnings
from pathlib import Path

import numpy as np

import qmpemba
import qmpemba.cli
from qmpemba.dynamics import FIT_WINDOW_ROTATED, FIT_WINDOW_UNROTATED
from qmpemba.errors import PoorFit, QmpembaError, WindowEmpty

from harness import Outcome, Tracer

# name -> (N, operations per pass).  A fig2 pass averages the seed-dependent
# burn length over three bundles; fig3 bundles are too long for more than one.
WORKLOADS = {"fig2": (40, 3), "fig3": (40, 1), "states": (20, 32)}

SCAN_ANGLES = np.linspace(0.0, np.pi / 2, 201)
GRID_POINTS = 801
PAPER_DICKE = qmpemba.DickeParams(omega=1.0, g=1.0, kappa=1.0, Omega=1.0)

# (lambda_2, lambda_3) frozen from the seed commit.  The N=40 values are the
# test suite's REFERENCE_N40, copied because the benchmark may not import tests.
REFERENCE = {
    ("dicke", 40): (-0.00953790558029497, -0.02995282424843771),
    ("all-to-all", 40): (-0.012251324865034111, complex(-0.19537103614822932, 1.7024791697141686)),
    ("dicke", 20): (-0.01903956363506324, -0.0598879375985619),
    ("dicke", 4): (-0.09427165212124852, complex(-0.1706880702604351, 1.1838878941148747)),
    ("all-to-all", 4): (-0.4393792647207604, complex(-0.5868974202327174, 1.5252676523202278)),
}
REFERENCE_REL = 1e-6
FIGURE_MODEL = {"fig2": "dicke", "fig3": "all-to-all"}
# the value in assertions.json behind a failed check, quoted in the failure note
CHECK_VALUE = {
    "unrotated_rate_matches_lambda2": "unrotated_rate_over_lambda2",
    "rotated_rate_matches_re_lambda3": "rotated_rate_over_re_lambda3",
    "rotated_at_least_10x_closer": "distance_ratio_at_plateau_end",
}

# span name, function name, modules holding the name ("" is the package)
TRACED = (
    ("models", "dicke_model", ("config", "")),
    ("models", "all_to_all_model", ("config", "")),
    ("models", "random_pure_state", ("cli", "")),
    ("superop.build_liouvillian", "build_liouvillian", ("cli", "dynamics", "")),
    ("spectral.decompose", "decompose", ("cli", "")),
    ("spectral.basis_rows", "hermitian_operator_basis_rows", ("spectral",)),
    ("linalg.refined_inverse", "refined_inverse", ("spectral",)),
    ("mpemba.optimal_unitary", "optimal_unitary", ("cli", "")),
    ("mpemba.overlap_scan", "overlap_scan", ("cli", "")),
    ("mpemba.slow_mode_spectrum", "slow_mode_spectrum", ("mpemba",)),
    ("dynamics.robust_trajectory", "robust_trajectory", ("cli", "")),
    ("dynamics.burn", "_integrate_interval", ("dynamics",)),  # private: one RK4 burn interval
    ("dynamics.mode_sum", "evolve_spectral_grid", ("dynamics",)),
    ("dynamics.hs_distance", "hs_distance", ("dynamics",)),
    ("dynamics.fit_decay_rate", "fit_decay_rate", ("cli", "")),
    ("cli.reproduce", "cmd_reproduce", ("cli",)),
)
# LAPACK calls of ``spectral``, reached through its ``sla`` (scipy.linalg) name
KERNELS = (("spectral.eig", "eig"), ("spectral.lu", "lu_factor"), ("spectral.lu", "lu_solve"))


def _holder(name: str):
    return qmpemba if not name else importlib.import_module(f"qmpemba.{name}")


def reference_matches(model: str, n: int, lam2, lam3) -> bool:
    ref2, ref3 = REFERENCE[(model, n)]
    return (abs(lam2 - ref2) <= REFERENCE_REL * abs(ref2)
            and abs(lam3 - ref3) <= REFERENCE_REL * abs(ref3))


class Workload:
    """One workload's passes; a traced one wraps the program's functions in spans."""

    def __init__(self, name: str, seed: int, tracer: Tracer, traced: bool, out_root: Path):
        self.name, self.seed = name, seed
        self.n, self.per_pass = WORKLOADS[name]
        self.out_root = out_root
        self.counters: dict = {}
        if not traced:
            return
        for span, attr, holders in TRACED:
            observe = {"decompose": self._saw_decompose,
                       "robust_trajectory": self._saw_trajectory,
                       "_integrate_interval": self._saw_burn}.get(attr)
            for holder in holders:
                tracer.wrap(_holder(holder), attr, span, observe)
        spectral = importlib.import_module("qmpemba.spectral")
        proxy = types.SimpleNamespace(**vars(spectral.sla))
        for span, attr in KERNELS:
            tracer.wrap(proxy, attr, span)
        tracer.replace(spectral, "sla", proxy)

    def _saw_decompose(self, args, dec):
        self.counters["m"] = int(dec.eigenvalues.size)

    def _saw_trajectory(self, args, traj):
        self.counters["hybrid"] = self.counters.get("hybrid", 0) + (traj.source == "hybrid")

    def _saw_burn(self, args, _):
        t0, t1, h_max = args[3:6]  # the interval's own step count, as it computes it
        steps = max(1, int(np.ceil((t1 - t0) / h_max)))
        self.counters["burn_steps"] = self.counters.get("burn_steps", 0) + steps

    def do_pass(self, index: int, counters: dict) -> list[Outcome]:
        self.counters = counters
        if self.name == "states":
            return self._states_pass()
        # bundle j of every pass runs program seed per_pass * seed + j
        return [self._bundle(self.per_pass * self.seed + j) for j in range(self.per_pass)]

    def _bundle(self, seed: int) -> Outcome:
        out = self.out_root / f"{self.name}-seed{seed}"
        try:
            rc = qmpemba.cli.main(["reproduce", self.name, "--seed", str(seed),
                                   "--n", str(self.n), "--out", str(out)])
            bundle = out / self.name
            outcome = check_bundle(self.name, self.n, rc, bundle)
            if bundle.is_dir():
                written = sum(p.stat().st_size for p in bundle.iterdir())
                self.counters["bytes_written"] = self.counters.get("bytes_written", 0) + written
            return outcome
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            return Outcome(failed=True, wrong=True, note="raised")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _states_pass(self) -> list[Outcome]:
        try:
            model = qmpemba.dicke_model(PAPER_DICKE, self.n)
            dec = qmpemba.decompose(qmpemba.build_liouvillian(model))
            self.counters["decomposed_at"] = time.perf_counter()
        except Exception:  # a failed decomposition fails every state of the pass
            traceback.print_exc()
            return [Outcome(failed=True, wrong=True, note="decompose raised")] * self.per_pass
        ref_ok = reference_matches("dicke", self.n, dec.eigenvalues[1], dec.eigenvalues[2])
        outcomes = []
        for k in range(self.per_pass):
            seq = np.random.SeedSequence([self.seed, k])
            psi = qmpemba.random_pure_state(self.n, int(seq.generate_state(1)[0]))
            try:
                outcome = check_state(model, dec, psi)
            except Exception:  # one failed state must not end the run
                traceback.print_exc()
                outcome = Outcome(failed=True, wrong=True, note="raised")
            if not ref_ok:
                outcome = Outcome(failed=True, wrong=True, note="lambda reference")
            outcomes.append(outcome)
        return outcomes


def check_bundle(figure: str, n: int, rc: int, bundle: Path) -> Outcome:
    """Gates of one reproduce bundle: exit code, ``assertions.json``, reference eigenvalues.

    Exit 1 with ``passed = false`` is a failure the program declares itself;
    it is counted as failed but not as wrong output.  Any other nonzero exit
    produced no result, and is wrong.
    """
    if rc not in (0, 1):
        return Outcome(failed=True, wrong=True, note=f"exit {rc}")
    assertions = json.loads((bundle / "assertions.json").read_text())
    rows = (bundle / "spectrum.csv").read_text().splitlines()[1:4]
    lam = [complex(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows]
    ref_ok = reference_matches(FIGURE_MODEL[figure], n, lam[1], lam[2])
    passed = bool(assertions["passed"])
    values = assertions["values"]
    bad = [k for k, ok in assertions["checks"].items() if not ok]
    bad = [f"{k} ({CHECK_VALUE[k]}={values.get(CHECK_VALUE[k])})" if k in CHECK_VALUE else k
           for k in bad]
    if not ref_ok:
        bad.append("lambda reference")
    return Outcome(
        failed=rc != 0 or not passed or not ref_ok,
        wrong=not ref_ok or (rc == 0) != passed,
        note=",".join(bad),
        rate_ratios=(values.get("unrotated_rate_over_lambda2"),
                     values.get("rotated_rate_over_re_lambda3")),
    )


def _rate_ratio(traj, window, rate: float):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PoorFit)  # the ratio is recorded, not gated
            return qmpemba.fit_decay_rate(traj.times, traj.distances, window).rate / rate
    except WindowEmpty:
        return None


def check_state(model, dec, psi) -> Outcome:
    """One state: rotation, scan and both trajectories, with the per-state gates.

    Gates: residual overlap <= 1e-9 max|l2| (criterion 3), unitarity <= 1e-10,
    the scan on the two-level law <= 1e-10 (criterion 4), and trajectories
    that finish.  A program error (``NoConvergence`` and the like) leaves the
    state without a result, and is wrong.  A rotation that fails its gates is
    not evolved.  The fitted-rate ratios are recorded, not gated.
    """
    lam = dec.eigenvalues
    rate2, rate3 = abs(lam[1].real), abs(lam[2].real)
    try:
        rot = qmpemba.optimal_unitary(dec, psi)
        scan = np.array(qmpemba.overlap_scan(dec, psi, SCAN_ANGLES))
    except QmpembaError as exc:  # declared failures of the program
        return Outcome(failed=True, wrong=True, note=type(exc).__name__)
    a1, an = rot.slow_spectrum.alpha_1, rot.slow_spectrum.alpha_n
    law = a1 * np.cos(scan[:, 0]) ** 2 + an * np.sin(scan[:, 0]) ** 2
    u = rot.unitary
    gates = {
        "residual_overlap": rot.residual_overlap <= 1e-9 * float(np.max(np.abs(dec.left_modes[1]))),
        "unitary": float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))) <= 1e-10,
        "two_level_law": float(np.max(np.abs(scan[:, 1] - law))) <= 1e-10,
    }
    bad = [k for k, ok in gates.items() if not ok]
    if bad:
        return Outcome(failed=True, wrong=True, note=",".join(bad))
    psi_rot = u @ psi
    try:
        traj_un = qmpemba.robust_trajectory(
            model, dec, np.outer(psi, psi.conj()),
            qmpemba.TimeGrid.linear(0.0, 16.0 / rate2, GRID_POINTS))
        traj_rot = qmpemba.robust_trajectory(
            model, dec, np.outer(psi_rot, psi_rot.conj()),
            qmpemba.TimeGrid.linear(0.0, 16.0 / rate3, GRID_POINTS))
    except QmpembaError as exc:  # NoConvergence of the early-time burn
        return Outcome(failed=True, wrong=True, note=type(exc).__name__)
    if not (np.all(np.isfinite(traj_un.distances)) and np.all(np.isfinite(traj_rot.distances))):
        return Outcome(failed=True, wrong=True, note="trajectory not finite")
    return Outcome(
        failed=False,
        rate_ratios=(_rate_ratio(traj_un, FIT_WINDOW_UNROTATED, rate2),
                     _rate_ratio(traj_rot, FIT_WINDOW_ROTATED, rate3)),
    )
