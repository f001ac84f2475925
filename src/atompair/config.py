"""Run configuration: defaults, flat text-file parser, validation.

The config file format is flat ``key = value`` text: one assignment per
line, ``#`` starts a comment, keys are exactly the RunConfig field names.
Vectors are comma-separated floats; complex analyzer vectors list six
floats (re_x, im_x, re_y, im_y, re_z, im_z).  Every ``RunConfig`` is checked
when built, ``replace`` overrides too, partly by building its model, and an
error from a file names the line of each key at fault.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .atom_model import DriveDecayParams, hg_level_scheme, standard_geometry, two_level_scheme
from .scans import _PLANES

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "load_config"]


class ConfigError(Exception):
    """Malformed configuration; maps to CLI exit code 2.  ``keys`` are the config keys at fault."""

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


@dataclass(frozen=True)
class RunConfig:
    # drive and decay, in inverse time units of the coherence damping rate
    g: float = 1.0
    gamma0: float = 0.5
    gamma: float = 0.5
    # scheme: "four-level" (driven J=1/2 -> J=1/2) or "two-level"
    scheme: str = "four-level"
    # geometry
    separation_wavelengths: float = 0.5
    drive_direction: tuple[float, float, float] = (0.0, 1.0, 0.0)
    scan_plane: str = "xy"
    scan_points: int = 360
    # detectors
    pol_1: str = "pi"
    pol_2: str = "pi"
    pol_1_vector: tuple[float, ...] | None = None
    pol_2_vector: tuple[float, ...] | None = None
    # Monte Carlo
    n_traj: int = 2000
    t_total: float = 200.0
    seed: int = 20260809
    # output
    path: str = ""
    format: str = "csv"

    def __post_init__(self) -> None:
        _validate(self)

    @property
    def model(self):
        """(scheme, params, geometry) of this run, built by :func:`_model`."""
        drive = tuple(self.drive_direction)
        return _model(self.g, self.gamma0, self.gamma, self.scheme, self.separation_wavelengths, drive)

    def polarization_vector(self, which: int) -> np.ndarray | None:
        raw = self.pol_1_vector if which == 1 else self.pol_2_vector
        if raw is None:
            return None
        arr = np.asarray(raw, dtype=float)
        return arr[0::2] + 1j * arr[1::2]


# every key parses as the type of its default, except the vectors: comma-separated floats
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_VECTOR_LENGTHS = {"drive_direction": 3, "pol_1_vector": 6, "pol_2_vector": 6}

_CHOICES = {
    "scheme": ("four-level", "two-level"),
    "scan_plane": tuple(_PLANES),
    "pol_1": ("pi", "sigma", "custom"),
    "pol_2": ("pi", "sigma", "custom"),
    "format": ("csv", "json"),
}


def parse_config_text(text: str) -> RunConfig:
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in lines:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        lines[key] = lineno
        try:
            if key in _VECTOR_LENGTHS:
                count = _VECTOR_LENGTHS[key]
                parts = [p.strip() for p in raw.split(",")]
                if len(parts) != count:
                    raise ConfigError(
                        f"line {lineno}: key '{key}' expects {count} comma-separated numbers"
                    )
                values[key] = tuple(float(p) for p in parts)
            else:
                values[key] = type(_DEFAULTS[key])(raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key '{key}': {exc}") from None
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        # the defaults pass every rule, so each rule error names a key set in this file
        found = sorted(lines[key] for key in exc.keys if key in lines)
        raise ConfigError(", ".join(f"line {n}" for n in found) + f": {exc}", exc.keys) from None


@functools.lru_cache(maxsize=1)
def _model(g, gamma0, gamma, scheme, separation_wavelengths, drive_direction):
    """(scheme, params, geometry), each checked by its own type, whose ValueError becomes a
    ConfigError on the keys it is built from.  The two-level scheme's one decay half-rate is
    gamma0 + gamma, so closed forms keep Gamma.  The last values are kept: a config's check and
    the command that runs it share one build."""
    keys = ("g", "gamma0", "gamma")
    try:
        params = DriveDecayParams(g=g, gamma0=gamma0, gamma=gamma)
        levels = two_level_scheme(params.total) if scheme == "two-level" else hg_level_scheme(params)
        keys = ("separation_wavelengths", "drive_direction")
        geometry = standard_geometry(separation_wavelengths, drive_direction)
    except ValueError as exc:
        raise ConfigError("keys " + "/".join(f"'{k}'" for k in keys) + f": {exc}", keys) from None
    return levels, params, geometry


def _validate(config: RunConfig) -> None:
    for key, allowed in _CHOICES.items():
        value = getattr(config, key)
        if value not in allowed:
            raise ConfigError(f"key '{key}' must be one of {allowed}, got {value!r}", (key,))
    for key, valid, rule in (
        ("scan_points", config.scan_points >= 2, ">= 2"),
        ("n_traj", config.n_traj >= 1, ">= 1"),
        ("seed", config.seed >= 0, ">= 0"),
        ("t_total", 0 < config.t_total < np.inf, "> 0 and finite"),
    ):
        if not valid:
            raise ConfigError(f"key '{key}' must be {rule}", (key,))
    for which, kind in ((1, config.pol_1), (2, config.pol_2)):
        key = f"pol_{which}_vector"
        vector = getattr(config, key)
        if kind == "custom" and vector is None:
            raise ConfigError(f"key 'pol_{which}' is custom but '{key}' is missing", (f"pol_{which}",))
        if vector is not None and not (np.all(np.isfinite(vector)) and np.any(vector)):
            raise ConfigError(f"key '{key}' must be a nonzero vector of finite entries", (key,))
    config.model  # the build is the check of every key it reads


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text)
