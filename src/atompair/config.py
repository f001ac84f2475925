"""Run configuration: defaults, flat text-file parser, validation.

The config file format is flat ``key = value`` text: one assignment per
line, ``#`` starts a comment, keys are exactly the RunConfig field names.
Vectors are comma-separated floats; complex analyzer vectors list six
floats (re_x, im_x, re_y, im_y, re_z, im_z).  Parse errors name the line
and key; every ``RunConfig`` is checked when built, ``replace`` overrides too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "load_config"]


class ConfigError(Exception):
    """Malformed configuration; maps to CLI exit code 2."""


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
    "scan_plane": ("xy", "xz"),
    "pol_1": ("pi", "sigma", "custom"),
    "pol_2": ("pi", "sigma", "custom"),
    "format": ("csv", "json"),
}


def parse_config_text(text: str) -> RunConfig:
    values: dict[str, object] = {}
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
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
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
        if key in _CHOICES and values[key] not in _CHOICES[key]:
            raise ConfigError(
                f"line {lineno}: key '{key}' must be one of {_CHOICES[key]}, got {values[key]!r}"
            )
    return RunConfig(**values)


def _validate(config: RunConfig) -> None:
    for key, default in sorted(_DEFAULTS.items()):
        value = getattr(config, key)
        numeric = isinstance(default, float) or key in _VECTOR_LENGTHS
        if numeric and value is not None and not np.all(np.isfinite(value)):
            raise ConfigError(f"key '{key}' must be finite")
    if config.g < 0:
        raise ConfigError("key 'g' must be >= 0")
    if config.gamma0 < 0 or config.gamma < 0:
        raise ConfigError("keys 'gamma0'/'gamma' must be >= 0")
    if config.gamma0 + config.gamma <= 0:
        raise ConfigError("gamma0 + gamma must be > 0")
    if config.separation_wavelengths <= 0:
        raise ConfigError("key 'separation_wavelengths' must be > 0")
    if config.scan_points < 2:
        raise ConfigError("key 'scan_points' must be >= 2")
    if config.n_traj < 1:
        raise ConfigError("key 'n_traj' must be >= 1")
    if config.seed < 0:
        raise ConfigError("key 'seed' must be >= 0")
    if config.t_total <= 0:
        raise ConfigError("key 't_total' must be > 0")
    if not np.any(config.drive_direction):
        raise ConfigError("key 'drive_direction' must be a nonzero vector")
    for which, kind in ((1, config.pol_1), (2, config.pol_2)):
        vector = config.polarization_vector(which)
        if kind == "custom" and vector is None:
            raise ConfigError(f"key 'pol_{which}' is custom but 'pol_{which}_vector' is missing")
        if vector is not None and not np.any(vector):
            raise ConfigError(f"key 'pol_{which}_vector' must be a nonzero vector")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text)
