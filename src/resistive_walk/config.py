"""Experiment configuration: flat key-value files with a closed schema.

Every known key has a type and a default; unknown keys are rejected.
`serialize_config` writes every field in schema order, so a parsed file
round-trips exactly and the serialization doubles as the hash preimage.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .graph import METRICS

MODELS = ("lrp", "exp", "fixture")

PRESET_NAMES = ("line-sanity", "lrp-s3.0", "lrp-s3.5", "lrp-s2.2", "exp-c1")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    model: str
    half_width: int = 0
    beta: float = 0.0
    tail_exponent: float = 3.5
    rate: float = 1.0
    fixture_name: str = ""
    fixture_size: int = 0
    ensemble: int = 1
    master_seed: int = 0
    metric: str = "line"
    radius_grid: tuple[int, ...] = ()
    time_grid: tuple[int, ...] = ()
    goodscale_radii: tuple[int, ...] = ()
    tolerance_grid: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
    theta_grid: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0)
    theta_star: float = 16.0
    volume_exponent: float = 1.0
    volume_log_power: float = 0.0
    resistance_exponent: float = 1.0
    resistance_log_power: float = 0.0
    n_trajectories: int = 256
    mc_exit_radii: tuple[int, ...] = ()
    store_graphs: bool = False
    outdir: str = ""


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ConfigError(f"expected true or false, got {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    if not raw:
        return ()
    return tuple(int(tok) for tok in raw.split(","))


def _parse_float_list(raw: str) -> tuple[float, ...]:
    if not raw:
        return ()
    return tuple(float(tok) for tok in raw.split(","))


def _show(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_show(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_PARSERS = {
    str: lambda raw: raw,
    int: int,
    float: float,
    bool: _parse_bool,
    tuple[int, ...]: _parse_int_list,
    tuple[float, ...]: _parse_float_list,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines; unknown or repeated keys are errors."""
    known = typing.get_type_hints(ExperimentConfig)
    seen: dict[str, object] = {}
    for ln_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw_value = (tok.strip() for tok in line.partition("="))
        if not eq:
            raise ConfigError(f"line {ln_no}: expected 'key = value', got {raw_line!r}")
        if key not in known:
            raise ConfigError(f"line {ln_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {ln_no}: repeated key {key!r}")
        try:
            seen[key] = _PARSERS[known[key]](raw_value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {ln_no}: bad value for {key!r}: {exc}") from exc
    for required in ("name", "model"):
        if required not in seen:
            raise ConfigError(f"missing required key {required!r}")
    config = ExperimentConfig(**seen)
    validate_config(config)
    return config


def serialize_config(config: ExperimentConfig) -> str:
    lines = [f"{f.name} = {_show(getattr(config, f.name))}" for f in fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()


def validate_config(config: ExperimentConfig) -> None:
    if config.model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {config.model!r}")
    if config.metric not in METRICS:
        raise ConfigError(f"metric must be one of {METRICS}")
    if not config.name:
        raise ConfigError("name must be nonempty")
    if config.ensemble < 1:
        raise ConfigError("ensemble must be at least 1")
    if config.n_trajectories < 1:
        raise ConfigError("n_trajectories must be at least 1")
    if config.master_seed < 0:
        raise ConfigError("master_seed must be nonnegative")
    if config.model == "lrp":
        if config.half_width < 2:
            raise ConfigError("lrp model needs half_width >= 2")
        if not config.tail_exponent > 2:
            raise ConfigError("tail_exponent must exceed 2")
        if config.beta < 0:
            raise ConfigError("beta must be nonnegative")
    elif config.model == "exp":
        if config.half_width < 2:
            raise ConfigError("exp model needs half_width >= 2")
        if not config.rate > 0:
            raise ConfigError("rate must be positive")
    else:
        if not config.fixture_name:
            raise ConfigError("fixture model needs fixture_name")
    for grid_name in ("radius_grid", "time_grid", "goodscale_radii",
                      "tolerance_grid", "theta_grid", "mc_exit_radii"):
        grid = getattr(config, grid_name)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"{grid_name} must be strictly increasing")
        if grid and grid[0] <= 0:
            raise ConfigError(f"{grid_name} entries must be positive")
    if any(t % 2 for t in config.time_grid):
        raise ConfigError("time_grid entries must be even (kernel series alignment)")
    if any(t < 1 for t in config.tolerance_grid):
        raise ConfigError("tolerance_grid entries must be at least 1")
    if any(t < 1 for t in config.theta_grid):
        raise ConfigError("theta_grid entries must be at least 1")
    if config.theta_star < 1:
        raise ConfigError("theta_star must be at least 1")
    if set(config.mc_exit_radii) - set(config.radius_grid):
        raise ConfigError("mc_exit_radii must be a subset of radius_grid")
    half_width = effective_half_width(config)
    if half_width:
        probe = max(config.radius_grid + config.goodscale_radii, default=0)
        if probe > half_width / 4:
            raise ConfigError(
                f"largest probe radius {probe} exceeds a quarter of half_width {half_width}"
            )


def effective_half_width(config: ExperimentConfig) -> int:
    """Window half-width of the generated graphs (0 for untruncated fixtures)."""
    if config.model in ("lrp", "exp"):
        return config.half_width
    if config.model == "fixture" and config.fixture_name == "line":
        return config.fixture_size
    return 0


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return parse_config(text)


def load_preset(name: str) -> ExperimentConfig:
    """Load one of the packaged preset configurations by name."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = resources.files("resistive_walk.presets").joinpath(f"{name}.cfg").read_text()
    return parse_config(text)


def with_overrides(config: ExperimentConfig, **changes) -> ExperimentConfig:
    updated = replace(config, **changes)
    validate_config(updated)
    return updated
