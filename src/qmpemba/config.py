"""Experiment configuration: flat key=value files plus programmatic overrides.

The file grammar is one ``key = value`` pair per line; blank lines and lines
starting with ``#`` are ignored.  Keys are case-sensitive (``Omega`` is the
overall drive/unit frequency, ``omega`` the boson frequency of the dicke
model).  Unknown keys are an error, not a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .errors import ConfigError
from .models import AllToAllParams, DickeParams, all_to_all_model, dicke_model
from .superop import LindbladModel

MODELS = ("dicke", "all-to-all")

_FLOAT_KEYS = {
    "Omega", "omega", "g", "kappa", "delta", "v",
    "t_max", "t_min", "tol_imag", "tol_gap", "fit_hi", "fit_lo",
}
_INT_KEYS = {"n", "seed", "t_points", "s_points"}
_STR_KEYS = {"model", "t_spacing", "out"}


@dataclass
class ExperimentConfig:
    model: str = "dicke"
    n: int = 40
    seed: int = 1
    Omega: float = 1.0
    omega: float = 1.0
    g: float = 1.0
    kappa: float = 1.0
    delta: float = -1.0
    v: float = 3.0
    t_max: Optional[float] = None      # None: derived from the spectrum
    t_min: Optional[float] = None      # None: derived; used by logarithmic grids
    t_points: int = 801
    t_spacing: str = "linear"
    s_points: int = 201
    tol_imag: float = 1e-8             # relative to max |eigenvalue|
    tol_gap: float = 1e-10
    fit_window: Optional[tuple] = None  # (hi, lo); None: per-trajectory default
    out: Optional[str] = None

    def __post_init__(self):
        if self.fit_window is not None:
            self.fit_window = tuple(float(x) for x in self.fit_window)
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.t_points < 2 or self.s_points < 2:
            raise ConfigError("t_points and s_points must be >= 2")
        if self.t_spacing not in ("linear", "logarithmic"):
            raise ConfigError(f"t_spacing must be linear or logarithmic, got {self.t_spacing!r}")
        for name in ("tol_imag", "tol_gap"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.fit_window is not None:
            hi, lo = self.fit_window
            if not (hi > lo > 0):
                raise ConfigError(f"fit window must satisfy hi > lo > 0, got {self.fit_window}")

    def lindblad_model(self) -> LindbladModel:
        try:
            if self.model == "dicke":
                params = DickeParams(
                    omega=self.omega, g=self.g, kappa=self.kappa, Omega=self.Omega
                )
                return dicke_model(params, self.n)
            params = AllToAllParams(
                Delta=self.delta, V=self.v, kappa=self.kappa, Omega=self.Omega
            )
            return all_to_all_model(params, self.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def parse_config_text(text: str) -> dict:
    """Parse the flat key=value grammar into a raw string dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {line!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _convert(key: str, value: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _STR_KEYS:
            return value
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key!r}: {value!r}") from exc
    raise ConfigError(f"unknown configuration key {key!r}")


def read_config(path=None, overrides: Optional[dict] = None) -> dict:
    """The values of an optional config file with the non-None overrides on top.

    Each value is converted to its key's type but not yet validated, so a
    caller can read the output directory (``out``) from them before a value
    that ``ExperimentConfig`` rejects stops the run.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for key, raw in parse_config_text(text).items():
            values[key] = _convert(key, raw)
    if overrides:
        for key, val in overrides.items():
            if val is not None:
                values[key] = val
    return values


def load_config(path=None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Build a configuration from defaults, an optional file, and overrides."""
    values = read_config(path, overrides)
    if "fit_hi" in values or "fit_lo" in values:
        if not ("fit_hi" in values and "fit_lo" in values):
            raise ConfigError("fit_hi and fit_lo must be given together")
        fit = (values.pop("fit_hi"), values.pop("fit_lo"))
        values.setdefault("fit_window", fit)  # an explicit fit_window wins
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
