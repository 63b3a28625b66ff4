"""Command-line front end: spectrum, overlap-scan, evolve, reproduce.

Every run writes its data files plus exactly one ``manifest.json`` into its
output directory (``<out>/<figure>`` for ``reproduce``); every failure after
that directory is known writes a machine-readable ``error.json`` there.
Files are written atomically (temp file + rename) and floats are serialized
with 17 significant digits, so identical configurations reproduce identical
bytes at one BLAS thread count; last digits can change with that count, and
for a one-block generator (all-to-all) the spectrum and handoffs too.

Exit codes: 0 success, 1 failed reproduction assertions, 2 violated spectral
assumptions, 3 numerical failure, 4 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config, read_config
from .dynamics import (
    FIT_WINDOW_ROTATED,
    FIT_WINDOW_UNROTATED,
    TimeGrid,
    fit_decay_rate,
    fit_start,
    find_plateau,
    robust_trajectory,
)
from .errors import (
    AssumptionViolation,
    ConfigError,
    QmpembaError,
    WindowEmpty,
)
from .mpemba import optimal_unitary, overlap_scan
from .models import random_pure_state
from .spectral import decompose
from .superop import VEC_CONVENTION, build_liouvillian

ENV_OUT_DIR = "QMPEMBA_OUT"
DEFAULT_OUT_DIR = "qmpemba-out"

EXIT_OK = 0
EXIT_ASSERTIONS = 1
EXIT_ASSUMPTIONS = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4

FIGURES = {
    "fig2": {"model": "dicke", "t_spacing": "linear"},
    "fig3": {"model": "all-to-all", "t_spacing": "logarithmic"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; config errors are 4
        raise ConfigError(message)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path: Path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    _atomic_write(path, text + "\n")


def _out_dir(args, out) -> Path:
    """The command's own output directory, created; ``<out>/<figure>`` for reproduce.

    ``out`` is the config file's ``out`` value, if any; ``--out`` comes before
    it and ``$QMPEMBA_OUT`` after it.
    """
    path = Path(args.out or out or os.environ.get(ENV_OUT_DIR) or DEFAULT_OUT_DIR)
    if args.command == "reproduce":
        path = path / args.figure
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _error_payload(exc: Exception, code: int) -> dict:
    return {"error": type(exc).__name__, "message": str(exc), "exit_code": code}


def _emit_error(out_dir: Path | None, exc: Exception, code: int) -> int:
    payload = _error_payload(exc, code)
    if out_dir is not None:
        _write_json(out_dir / "error.json", payload)
    print(json.dumps(payload), file=sys.stderr)
    return code


def _decompose(cfg: ExperimentConfig):
    model = cfg.lindblad_model()
    sup = build_liouvillian(model)
    dec = decompose(
        sup, tol_imag_factor=cfg.tol_imag, tol_gap_factor=cfg.tol_gap
    )
    return model, dec


def _spectrum_rows(eigenvalues):
    return [(k + 1, lam.real, lam.imag) for k, lam in enumerate(eigenvalues)]


def _assumptions(dec) -> dict:
    diag = dec.diagnostics
    lam = dec.eigenvalues
    return {
        "stationary_unique": diag.flags.stationary_unique,
        "lambda2_real": diag.flags.slow_mode_real,
        "lambda2_unique": diag.flags.slow_mode_unique,
        "tau": dec.tau,
        "abs_re_lambda2": abs(lam[1].real),
        "abs_re_lambda3": abs(lam[2].real),
        "gap3": dec.gap3,
        "metastability_ratio": abs(lam[2].real) / abs(lam[1].real),
        "condition_estimate": diag.condition_estimate,
        "biorthonormality_residual": diag.biorthonormality_residual,
        "fixed_point_residual": diag.fixed_point_residual,
    }


def _manifest(out_dir: Path, command: str, cfg: ExperimentConfig, t0: float,
              files, extra: dict | None = None):
    payload = {
        "command": command,
        "config": cfg.echo(),
        "version": __version__,
        "vec_convention": VEC_CONVENTION,
        "seed": cfg.seed,
        "wall_clock_seconds": time.monotonic() - t0,
        "files": sorted(files),
    }
    if extra:
        payload.update(extra)
    _write_json(out_dir / "manifest.json", payload)


def cmd_spectrum(cfg: ExperimentConfig, out_dir: Path) -> int:
    t0 = time.monotonic()
    error = None
    try:
        _, dec = _decompose(cfg)
    except AssumptionViolation as exc:  # a finished decomposition, or eigenvalues only
        error, dec = exc, exc.decomposition
    eigenvalues = error.eigenvalues if dec is None else dec.eigenvalues
    _write_csv(out_dir / "spectrum.csv", ("k", "re_lambda", "im_lambda"),
               _spectrum_rows(eigenvalues))
    files, assumptions = ["spectrum.csv"], None
    if dec is not None:
        assumptions = _assumptions(dec)
        _write_json(out_dir / "spectrum_summary.json", assumptions)
        files.append("spectrum_summary.json")
    if error is not None:
        files.append("error.json")
    _manifest(out_dir, "spectrum", cfg, t0, files, {"assumptions": assumptions})
    return EXIT_OK if error is None else _emit_error(out_dir, error, EXIT_ASSUMPTIONS)


def _scan_outputs(dec, cfg):
    psi = random_pure_state(cfg.n, cfg.seed)
    rot = optimal_unitary(dec, psi)
    s_grid = np.linspace(0.0, np.pi / 2, cfg.s_points)
    scan = overlap_scan(dec, psi, s_grid)
    a1, an = rot.slow_spectrum.alpha_1, rot.slow_spectrum.alpha_n
    rows = [
        (s, val, a1 * np.cos(s) ** 2 + an * np.sin(s) ** 2, rot.initial_overlap)
        for s, val in scan
    ]
    return psi, rot, rows


def _rotation_extra(rot) -> dict:
    return {
        "branch": rot.branch,
        "s_bar": rot.s_bar,
        "residual_overlap": rot.residual_overlap,
        "initial_overlap": rot.initial_overlap,
        "alpha_1": rot.slow_spectrum.alpha_1,
        "alpha_n": rot.slow_spectrum.alpha_n,
    }


def cmd_overlap_scan(cfg: ExperimentConfig, out_dir: Path) -> int:
    t0 = time.monotonic()
    _, dec = _decompose(cfg)
    _, rot, rows = _scan_outputs(dec, cfg)
    _write_csv(out_dir / "overlap_scan.csv",
               ("s", "overlap", "analytic", "unrotated_overlap"), rows)
    _manifest(out_dir, "overlap-scan", cfg, t0, ["overlap_scan.csv"],
              {"assumptions": _assumptions(dec), "rotation": _rotation_extra(rot)})
    return EXIT_OK


def _trajectory_grid(cfg: ExperimentConfig, dec, rotated: bool) -> TimeGrid:
    lam = dec.eigenvalues
    rate = abs(lam[2].real) if rotated else abs(lam[1].real)
    t_max = cfg.t_max if cfg.t_max is not None else 16.0 / rate
    try:
        if cfg.t_spacing == "linear":
            return TimeGrid.linear(0.0, t_max, cfg.t_points)
        t_min = cfg.t_min if cfg.t_min is not None else 1e-2 / abs(lam[2].real)
        return TimeGrid.geometric(t_min, t_max, cfg.t_points, include_zero=True)
    except ValueError as exc:
        raise ConfigError(f"invalid time grid (t_min, t_max, t_points): {exc}") from exc


def _fitted_trajectory(model, dec, rho0, grid, window, slow):
    """The trajectory and its decay fit over the grid points from ``fit_start`` on.

    ``slow`` is the mode whose rate the fit measures: 1 (lambda_2) for a
    plain state, 2 (lambda_3) for a rotated one.
    """
    traj = robust_trajectory(model, dec, rho0, grid)
    start = fit_start(dec, rho0, grid, slow)
    try:
        if start is None:
            raise WindowEmpty(f"mode {slow + 1} never dominates the rest of the mode sum")
        first = int(np.searchsorted(traj.times, start))
        fit = fit_decay_rate(traj.times[first:], traj.distances[first:], window)
        fit_info = {
            "rate": fit.rate, "r_squared": fit.r_squared,
            "window": list(fit.window), "t_start": fit.t_start,
            "t_stop": fit.t_stop, "n_points": fit.n_points,
        }
    except WindowEmpty as exc:
        fit, fit_info = None, {"error": str(exc)}
    fit_info = {"source": traj.source, "handoff_time": traj.handoff_time,
                "exact_matvecs": traj.exact_matvecs, "fit_start": start, **fit_info}
    return traj, fit, fit_info


def _trajectory_rows(traj):
    return zip(traj.times, traj.distances, np.abs(traj.slow_overlaps))


def cmd_evolve(cfg: ExperimentConfig, out_dir: Path, rotated: bool) -> int:
    t0 = time.monotonic()
    model, dec = _decompose(cfg)
    psi = random_pure_state(cfg.n, cfg.seed)
    rot_extra = None
    if rotated:
        rot = optimal_unitary(dec, psi)
        psi = rot.unitary @ psi
        rot_extra = _rotation_extra(rot)
    rho0 = np.outer(psi, psi.conj())
    grid = _trajectory_grid(cfg, dec, rotated)
    window = cfg.fit_window or (FIT_WINDOW_ROTATED if rotated else FIT_WINDOW_UNROTATED)
    traj, _, fit_info = _fitted_trajectory(model, dec, rho0, grid, window, 2 if rotated else 1)
    name = f"trajectory_{'rotated' if rotated else 'unrotated'}.csv"
    _write_csv(out_dir / name, ("t", "distance", "abs_slow_overlap"),
               _trajectory_rows(traj))
    _manifest(out_dir, "evolve", cfg, t0, [name],
              {"assumptions": _assumptions(dec), "rotated": rotated,
               "fit": fit_info, "rotation": rot_extra})
    return EXIT_OK


def _reproduce_assertions(figure, dec, rot, rows, fits, trajs):
    lam = dec.eigenvalues
    a1, an = rot.slow_spectrum.alpha_1, rot.slow_spectrum.alpha_n
    scan_dev = max(abs(r[1] - r[2]) for r in rows)
    ell2_scale = float(np.max(np.abs(dec.leading_left[1])))
    checks = {
        "lambda2_real_and_unique": dec.diagnostics.flags.clean,
        "residual_overlap_small": rot.residual_overlap <= 1e-9 * ell2_scale,
        "unitary": float(np.max(np.abs(
            rot.unitary.conj().T @ rot.unitary - np.eye(rot.unitary.shape[0])
        ))) <= 1e-10,
        "scan_matches_two_level_law": scan_dev <= 1e-10,
        "scan_endpoints": abs(rows[0][1] - a1) <= 1e-10 and abs(rows[-1][1] - an) <= 1e-10,
    }
    values = {
        "abs_re_lambda2": abs(lam[1].real),
        "abs_re_lambda3": abs(lam[2].real),
        "metastability_ratio": abs(lam[2].real) / abs(lam[1].real),
        "s_bar": rot.s_bar,
        "residual_overlap": rot.residual_overlap,
        "scan_max_deviation": scan_dev,
    }
    fit_un, fit_rot = fits
    if figure == "fig2":
        ratio_un = fit_un.rate / abs(lam[1].real) if fit_un else None
        ratio_rot = fit_rot.rate / abs(lam[2].real) if fit_rot else None
        checks["unrotated_rate_matches_lambda2"] = (
            ratio_un is not None and 0.95 <= ratio_un <= 1.05
        )
        checks["rotated_rate_matches_re_lambda3"] = (
            ratio_rot is not None and 0.95 <= ratio_rot <= 1.05
        )
        values["unrotated_rate_over_lambda2"] = ratio_un
        values["rotated_rate_over_re_lambda3"] = ratio_rot
    else:
        traj_un, traj_rot = trajs
        checks["lambda2_below_lambda3"] = abs(lam[1].real) < abs(lam[2].real)
        span = 1.0 / abs(lam[2].real)
        plateau = find_plateau(traj_un.times, traj_un.distances, span)
        checks["unrotated_plateau_exists"] = plateau is not None
        if plateau is not None:
            i, j = plateau
            ratio_end = traj_un.distances[j] / traj_rot.distances[j]
            checks["rotated_at_least_10x_closer"] = ratio_end >= 10.0
            values["plateau_t_start"] = float(traj_un.times[i])
            values["plateau_t_stop"] = float(traj_un.times[j])
            values["plateau_distance"] = float(traj_un.distances[i])
            values["distance_ratio_at_plateau_end"] = float(ratio_end)
        else:
            checks["rotated_at_least_10x_closer"] = False
        values["unrotated_rate"] = fit_un.rate if fit_un else None
        values["rotated_rate"] = fit_rot.rate if fit_rot else None
    return checks, values


def cmd_reproduce(figure: str, cfg: ExperimentConfig, out_dir: Path) -> int:
    t0 = time.monotonic()
    model, dec = _decompose(cfg)
    psi, rot, rows = _scan_outputs(dec, cfg)
    rho_un = np.outer(psi, psi.conj())
    psi_rot = rot.unitary @ psi
    rho_rot = np.outer(psi_rot, psi_rot.conj())
    grid_un = _trajectory_grid(cfg, dec, False)
    # fig3 compares both trajectories on one shared grid
    grid_rot = _trajectory_grid(cfg, dec, True) if figure == "fig2" else grid_un
    traj_un, fit_un, fit_un_info = _fitted_trajectory(
        model, dec, rho_un, grid_un, cfg.fit_window or FIT_WINDOW_UNROTATED, 1)
    traj_rot, fit_rot, fit_rot_info = _fitted_trajectory(
        model, dec, rho_rot, grid_rot, cfg.fit_window or FIT_WINDOW_ROTATED, 2)

    _write_csv(out_dir / "spectrum.csv", ("k", "re_lambda", "im_lambda"),
               _spectrum_rows(dec.eigenvalues))
    _write_csv(out_dir / "overlap_scan.csv",
               ("s", "overlap", "analytic", "unrotated_overlap"), rows)
    _write_csv(out_dir / "trajectory_unrotated.csv",
               ("t", "distance", "abs_slow_overlap"), _trajectory_rows(traj_un))
    _write_csv(out_dir / "trajectory_rotated.csv",
               ("t", "distance", "abs_slow_overlap"), _trajectory_rows(traj_rot))

    checks, values = _reproduce_assertions(
        figure, dec, rot, rows, (fit_un, fit_rot), (traj_un, traj_rot))
    passed = all(checks.values())
    _write_json(out_dir / "assertions.json",
                {"figure": figure, "passed": passed, "checks": checks, "values": values})
    _manifest(out_dir, f"reproduce {figure}", cfg, t0,
              ["spectrum.csv", "overlap_scan.csv", "trajectory_unrotated.csv",
               "trajectory_rotated.csv", "assertions.json"],
              {"assumptions": _assumptions(dec), "rotation": _rotation_extra(rot),
               "fit_unrotated": fit_un_info, "fit_rotated": fit_rot_info,
               "assertions_passed": passed})
    print(f"{figure}: {'PASS' if passed else 'FAIL'} "
          f"({sum(checks.values())}/{len(checks)} checks)")
    return EXIT_OK if passed else EXIT_ASSERTIONS


def _build_parser() -> _Parser:
    parser = _Parser(prog="qmpemba",
                     description="Liouvillian spectra and accelerated relaxation "
                                 "for collective-spin models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--model", choices=("dicke", "all-to-all"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n", type=int, default=None, help="number of spins")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${ENV_OUT_DIR} or ./{DEFAULT_OUT_DIR})")
        p.add_argument("--tol-imag", type=float, default=None,
                       help="relative tolerance for a real slow eigenvalue")
        p.add_argument("--tol-gap", type=float, default=None,
                       help="relative tolerance for slow-mode uniqueness")
        p.add_argument("--fit-window", default=None, metavar="HI:LO",
                       help="distance window for the decay-rate fit")

    common(sub.add_parser("spectrum", help="eigenvalues and relaxation summary"))
    common(sub.add_parser("overlap-scan", help="slow-mode overlap versus rotation angle"))
    evolve = sub.add_parser("evolve", help="distance-to-stationarity trajectory")
    common(evolve)
    evolve.add_argument("--rotated", action="store_true",
                        help="apply the overlap-removing unitary before evolving")
    rep = sub.add_parser("reproduce", help="bundled reference experiments")
    rep.add_argument("figure", choices=sorted(FIGURES))
    common(rep)
    return parser


def _config_values(args) -> dict:
    """The config file's values with the flags and the figure preset on top, unvalidated."""
    overrides = {
        "model": getattr(args, "model", None),
        "seed": args.seed,
        "n": args.n,
        "tol_imag": args.tol_imag,
        "tol_gap": args.tol_gap,
    }
    if args.fit_window:
        try:
            hi, lo = (float(x) for x in args.fit_window.split(":"))
        except ValueError as exc:
            raise ConfigError(f"--fit-window expects HI:LO, got {args.fit_window!r}") from exc
        overrides["fit_window"] = (hi, lo)
    if getattr(args, "figure", None):
        preset = dict(FIGURES[args.figure])
        for key, val in preset.items():
            overrides.setdefault(key, None)
            if overrides[key] is None:
                overrides[key] = val
    return read_config(args.config, overrides)


def main(argv=None) -> int:
    """Run one command; every package error becomes its exit code and an ``error.json``.

    The output directory is resolved from ``--out``, the config file's
    ``out``, ``$QMPEMBA_OUT`` or the default before the configuration is
    validated, so a rejected value (a negative seed, a non-finite float)
    writes its ``error.json`` there like every later failure.  A bad flag,
    an unreadable or malformed config file and a failure to create the
    directory come before it and go to stderr only.
    """
    out_dir = None
    try:
        args = _build_parser().parse_args(argv)
        values = _config_values(args)
        out_dir = _out_dir(args, values.get("out"))
        cfg = load_config(None, values)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out_dir)
        if args.command == "overlap-scan":
            return cmd_overlap_scan(cfg, out_dir)
        if args.command == "evolve":
            return cmd_evolve(cfg, out_dir, bool(args.rotated))
        return cmd_reproduce(args.figure, cfg, out_dir)
    except AssumptionViolation as exc:
        return _emit_error(out_dir, exc, EXIT_ASSUMPTIONS)
    except ConfigError as exc:
        return _emit_error(out_dir, exc, EXIT_CONFIG)
    except QmpembaError as exc:
        return _emit_error(out_dir, exc, EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
