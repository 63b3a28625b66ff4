from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from qmpemba import dynamics
from qmpemba.cli import main
from qmpemba.config import load_config
from qmpemba.errors import ConfigError, NoConvergence


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


def read_json(path):
    return json.loads(path.read_text())


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.model == "dicke" and cfg.n == 40 and cfg.seed == 1

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\nmodel = all-to-all\nn = 12\nseed = 7\nkappa = 2.0\n"
        )
        cfg = load_config(path, {"seed": 9})
        assert cfg.model == "all-to-all"
        assert cfg.n == 12
        assert cfg.seed == 9
        assert cfg.kappa == 2.0

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nope = 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_syntax(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model dicke\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_fit_window_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("fit_hi = 0.1\nfit_lo = 0.0001\n")
        cfg = load_config(path)
        assert cfg.fit_window == (0.1, 0.0001)
        # an explicit window (the --fit-window flag) wins over the file keys,
        # and any window is held as a tuple of floats
        cfg = load_config(path, {"fit_window": [1, 0.5]})
        assert cfg.fit_window == (1.0, 0.5)
        assert all(type(x) is float for x in cfg.fit_window)

    def test_bad_model(self):
        with pytest.raises(ConfigError):
            load_config(None, {"model": "bogus"})


class TestSpectrumCommand:
    def test_files_and_content(self, tmp_path):
        out = tmp_path / "run"
        code = main(["spectrum", "--model", "dicke", "--n", "6", "--out", str(out)])
        assert code == 0
        header, data = read_csv(out / "spectrum.csv")
        assert header == ["k", "re_lambda", "im_lambda"]
        assert data.shape == (49, 3)
        assert data[0, 0] == 1
        assert abs(data[0, 1]) < 1e-9
        summary = read_json(out / "spectrum_summary.json")
        assert summary["lambda2_real"] is True
        assert summary["tau"] == pytest.approx(1 / abs(data[1, 1]), rel=1e-12)
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["n"] == 6
        assert manifest["vec_convention"] == "column-stacking"

    def test_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["spectrum", "--model", "all-to-all", "--n", "6", "--out", str(out_a)]) == 0
        assert main(["spectrum", "--model", "all-to-all", "--n", "6", "--out", str(out_b)]) == 0
        assert (out_a / "spectrum.csv").read_bytes() == (out_b / "spectrum.csv").read_bytes()

    @pytest.mark.parametrize("flags, cfg_text, error, decomposed", [
        # an absurdly wide uniqueness tolerance forces the degenerate branch
        pytest.param(["--tol-gap", "1e6"], None, "DegenerateSlowMode", True,
                     id="DegenerateSlowMode"),
        # without coupling the dicke model has no dissipation: every diagonal
        # state is stationary, and only the eigenvalues are known
        pytest.param([], "g = 0\n", "DegenerateStationaryState", False,
                     id="DegenerateStationaryState"),
    ])
    def test_degenerate_slow_mode_exit_2(self, flags, cfg_text, error, decomposed, tmp_path):
        out = tmp_path / "run"
        argv = ["spectrum", "--model", "dicke", "--n", "6", "--out", str(out), *flags]
        if cfg_text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(cfg_text)
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = read_json(out / "error.json")
        assert err["error"] == error
        assert err["exit_code"] == 2
        _, data = read_csv(out / "spectrum.csv")
        assert data.shape == (49, 3)
        assert (out / "spectrum_summary.json").exists() == decomposed
        manifest = read_json(out / "manifest.json")
        assert (manifest["assumptions"] is not None) == decomposed
        assert manifest["files"] == sorted(
            p.name for p in out.iterdir() if p.name != "manifest.json")

    def test_bad_flag_exit_4(self, tmp_path):
        assert main(["spectrum", "--n", "not-a-number"]) == 4

    def test_bad_config_value_exit_4(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("kappa = -1\n")
        out = tmp_path / "run"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 4
        assert read_json(out / "error.json")["error"] == "ConfigError"

    def test_rejected_value_writes_to_the_config_out(self, tmp_path):
        out = tmp_path / "from-config"
        path = tmp_path / "bad.cfg"
        path.write_text(f"out = {out}\nseed = -1\n")
        assert main(["spectrum", "--config", str(path)]) == 4
        assert read_json(out / "error.json")["error"] == "ConfigError"


class TestOverlapScanCommand:
    def test_columns_and_endpoints(self, tmp_path):
        out = tmp_path / "run"
        code = main(["overlap-scan", "--model", "dicke", "--n", "6", "--out", str(out)])
        assert code == 0
        header, data = read_csv(out / "overlap_scan.csv")
        assert header == ["s", "overlap", "analytic", "unrotated_overlap"]
        manifest = read_json(out / "manifest.json")
        rot = manifest["rotation"]
        assert data[0, 1] == pytest.approx(rot["alpha_1"], abs=1e-10)
        assert data[-1, 1] == pytest.approx(rot["alpha_n"], abs=1e-10)
        assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-10
        assert np.all(data[:, 3] == data[0, 3])
        assert 0 < rot["s_bar"] < np.pi / 2
        assert rot["residual_overlap"] < 1e-9

    def test_scan_crosses_zero_at_s_bar(self, tmp_path):
        out = tmp_path / "run"
        main(["overlap-scan", "--model", "all-to-all", "--n", "6", "--out", str(out)])
        _, data = read_csv(out / "overlap_scan.csv")
        s_bar = read_json(out / "manifest.json")["rotation"]["s_bar"]
        before = data[data[:, 0] < s_bar][-1, 1]
        after = data[data[:, 0] > s_bar][0, 1]
        assert before * after <= 0


class TestEvolveCommand:
    def test_unrotated_first_point(self, tmp_path):
        out = tmp_path / "run"
        code = main(["evolve", "--model", "dicke", "--n", "6", "--out", str(out)])
        assert code == 0
        header, data = read_csv(out / "trajectory_unrotated.csv")
        assert header == ["t", "distance", "abs_slow_overlap"]
        assert data[0, 0] == 0.0
        manifest = read_json(out / "manifest.json")
        assert manifest["rotated"] is False
        assert manifest["fit"]["rate"] > 0

    def test_rotated_overlap_column_small(self, tmp_path):
        out = tmp_path / "run"
        code = main(["evolve", "--rotated", "--model", "dicke", "--n", "6", "--out", str(out)])
        assert code == 0
        _, data = read_csv(out / "trajectory_rotated.csv")
        # the slow-mode overlap starts at numerical zero and stays there
        assert np.max(data[:, 2]) < 1e-8
        manifest = read_json(out / "manifest.json")
        assert manifest["rotation"]["branch"] == "rotation"

    @pytest.mark.parametrize("agreement_tol", [dynamics.AGREEMENT_TOL, -1.0])
    def test_manifest_counts_exact_matvecs(self, agreement_tol, tmp_path, monkeypatch):
        # at N=6 the mode sum is certified at t=0; with no agreement the
        # whole grid is propagated exactly
        monkeypatch.setattr(dynamics, "AGREEMENT_TOL", agreement_tol)
        out = tmp_path / "run"
        main(["evolve", "--model", "dicke", "--n", "6", "--out", str(out)])
        fit = read_json(out / "manifest.json")["fit"]
        if agreement_tol > 0:
            assert (fit["source"], fit["handoff_time"], fit["exact_matvecs"]) == ("spectral", 0.0, 0)
        else:
            assert (fit["source"], fit["handoff_time"]) == ("hybrid", None)
            assert fit["exact_matvecs"] > 0

    def test_evolve_distance_zero_time(self, tmp_path):
        out = tmp_path / "run"
        main(["evolve", "--model", "all-to-all", "--n", "6", "--out", str(out)])
        _, data = read_csv(out / "trajectory_unrotated.csv")
        assert data[0, 1] > 0
        assert data[-1, 1] < data[0, 1]


class TestReproduceCommand:
    @pytest.mark.parametrize("figure", ["fig2", "fig3"])
    def test_bundle_structure_small(self, figure, tmp_path):
        out = tmp_path / "run"
        code = main(["reproduce", figure, "--n", "6", "--out", str(out)])
        bundle = out / figure
        files = sorted(p.name for p in bundle.iterdir())
        csvs = [f for f in files if f.endswith(".csv")]
        assert len(csvs) == 4
        assert "manifest.json" in files
        assert "assertions.json" in files
        result = read_json(bundle / "assertions.json")
        assert set(result) == {"figure", "passed", "checks", "values"}
        assert code in (0, 1)

    def test_fig2_small_passes_shared_checks(self, tmp_path):
        out = tmp_path / "run"
        main(["reproduce", "fig2", "--n", "8", "--out", str(out)])
        result = read_json(out / "fig2" / "assertions.json")
        checks = result["checks"]
        assert checks["lambda2_real_and_unique"]
        assert checks["residual_overlap_small"]
        assert checks["unitary"]
        assert checks["scan_matches_two_level_law"]
        assert checks["scan_endpoints"]

    def test_fit_starts_after_the_transient(self, tmp_path):
        main(["reproduce", "fig2", "--n", "12", "--out", str(tmp_path / "n12")])
        manifest = read_json(tmp_path / "n12" / "fig2" / "manifest.json")
        for key in ("fit_unrotated", "fit_rotated"):
            fit = manifest[key]
            assert fit["fit_start"] > 0
            assert fit["t_start"] >= fit["fit_start"]
        # at N=8 the real lambda_4 = -0.150 sits next to the lambda_3 pair
        # (Re -0.126) with more weight, so the pair never dominates: no fit
        main(["reproduce", "fig2", "--n", "8", "--out", str(tmp_path / "n8")])
        fit = read_json(tmp_path / "n8" / "fig2" / "manifest.json")["fit_rotated"]
        assert fit["fit_start"] is None
        assert "rate" not in fit and "never dominates" in fit["error"]

    def test_config_grid_bound_is_used(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("t_max = 50\n")
        out = tmp_path / "run"
        code = main(["reproduce", "fig2", "--n", "4", "--config", str(config), "--out", str(out)])
        assert code in (0, 1)
        for name in ("trajectory_unrotated.csv", "trajectory_rotated.csv"):
            _, data = read_csv(out / "fig2" / name)
            assert data[-1, 0] == 50.0


def _no_convergence(*args, **kwargs):
    raise NoConvergence("trajectory forced to fail")


# command, output given by --out ("flag"), by an --out that names an existing
# file ("file") or by $QMPEMBA_OUT ("env"), config file text, whether
# robust_trajectory fails, exit code, error.json subdirectory
EXIT_CODE_ROWS = [
    pytest.param(["spectrum", "--n", "4"], "flag", None, False, 0, None, id="0-success"),
    pytest.param(["reproduce", "fig2", "--n", "4", "--fit-window", "1e-300:1e-301"],
                 "flag", None, False, 1, None, id="1-assertions"),
    pytest.param(["reproduce", "fig2", "--n", "4", "--tol-gap", "1e6"],
                 "flag", None, False, 2, "fig2", id="2-assumptions-reproduce"),
    pytest.param(["overlap-scan", "--n", "4", "--tol-gap", "1e6"],
                 "env", None, False, 2, "", id="2-assumptions-env"),
    pytest.param(["spectrum", "--n", "3"], "flag", "g = 0\n", False, 2, "",
                 id="2-assumptions-stationary-state"),
    pytest.param(["evolve", "--n", "4"], "env", None, True, 3, "", id="3-numerical-env"),
    pytest.param(["reproduce", "fig3", "--n", "4"], "flag", None, True, 3, "fig3",
                 id="3-numerical-reproduce"),
    pytest.param(["evolve", "--n", "4"], "env", "t_max = 0.001\nt_spacing = logarithmic\n",
                 False, 4, "", id="4-config-bad-grid"),
    pytest.param(["evolve", "--n", "3"], "env", "t_max = nan\n", False, 4, "",
                 id="4-config-nan-t-max"),
    # t = 0 and one geometric point: the grid would end at t_min, not t_max
    pytest.param(["evolve", "--n", "4"], "env", "t_spacing = logarithmic\nt_points = 2\n",
                 False, 4, "", id="4-config-two-point-log-grid"),
    # a file that is not UTF-8 is unreadable, like any other: stderr only
    pytest.param(["spectrum", "--n", "3"], "flag", b"model = dicke\n\xff\n", False, 4, None,
                 id="4-config-not-utf8"),
    pytest.param(["spectrum", "--n", "3", "--tol-imag", "nan"], "flag", None, False, 4, "",
                 id="4-config-nan-tol-imag"),
    pytest.param(["spectrum", "--n", "3", "--tol-gap", "inf"], "flag", None, False, 4, "",
                 id="4-config-inf-tol-gap"),
    pytest.param(["overlap-scan", "--n", "3", "--seed", "-1"], "flag", None, False, 4, "",
                 id="4-config-negative-seed-scan"),
    pytest.param(["evolve", "--n", "3", "--seed", "-1"], "env", None, False, 4, "",
                 id="4-config-negative-seed-evolve"),
    pytest.param(["reproduce", "fig2", "--n", "3", "--seed", "-1"], "flag", None, False, 4,
                 "fig2", id="4-config-negative-seed-reproduce"),
    pytest.param(["spectrum", "--n", "4"], "file", None, False, 4, None, id="4-config-out-is-file"),
    pytest.param(["reproduce", "fig2", "--n", "4"], "file", None, False, 4, None,
                 id="4-config-out-is-file-reproduce"),
]


@pytest.mark.parametrize("argv, out_via, cfg_text, fail_trajectory, code, err_dir",
                         EXIT_CODE_ROWS)
def test_exit_codes(argv, out_via, cfg_text, fail_trajectory, code, err_dir,
                    tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = list(argv)
    if out_via == "file":
        out.write_text("not a directory\n")
    if out_via in ("flag", "file"):
        argv += ["--out", str(out)]
    else:
        monkeypatch.setenv("QMPEMBA_OUT", str(out))
    if cfg_text is not None:
        cfg = tmp_path / "run.cfg"
        if isinstance(cfg_text, bytes):
            cfg.write_bytes(cfg_text)
        else:
            cfg.write_text(cfg_text)
        argv += ["--config", str(cfg)]
    if fail_trajectory:
        monkeypatch.setattr("qmpemba.cli.robust_trajectory", _no_convergence)
    assert main(argv) == code
    if out_via == "file":
        assert out.read_text() == "not a directory\n"
    errors = sorted(p.relative_to(out) for p in out.rglob("error.json"))
    if err_dir is None:
        assert errors == []
    else:
        assert errors == [Path(err_dir) / "error.json"]
        assert read_json(out / err_dir / "error.json")["exit_code"] == code
