"""Experiment configuration: flat key-value files with a closed schema.

Every known key has a type and a default; unknown keys are rejected.
`serialize_config` writes every field in schema order, so a parsed file
round-trips exactly and the serialization doubles as the hash preimage.
"""

from __future__ import annotations

import hashlib
import math
import typing
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import ConfigError, InvalidArgumentError
from .generate import model_graph
from .graph import INT64, METRICS, check_quarter_distance

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


def format_value(value) -> str:
    """The text of one value in run files, config files and CLI output: None is
    empty, booleans true or false, integers decimal, floats their round-trip
    repr and tuples their items joined by commas, numpy scalars included."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    return str(value)


def write_csv(stream: IO[str], header: str, rows: Iterable[Iterable]) -> None:
    """Write a header line, then one line of comma-joined values per row."""
    stream.write(header + "\n")
    for row in rows:
        stream.write(",".join(map(format_value, row)) + "\n")


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
    lines = [f"{f.name} = {format_value(getattr(config, f.name))}" for f in fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()


def validate_config(config: ExperimentConfig) -> None:
    for name, hint in typing.get_type_hints(ExperimentConfig).items():
        value = getattr(config, name)
        values = value if isinstance(value, tuple) else (value,)
        if hint in (float, tuple[float, ...]) and not all(map(math.isfinite, values)):
            raise ConfigError(f"{name} must be finite")
        if hint not in (int, tuple[int, ...]):
            continue
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
            raise ConfigError(f"{name} takes integers only")
        # sizes and grids become array lengths and entries; seeds may be any size
        if name != "master_seed" and not all(INT64.min <= v <= INT64.max for v in values):
            raise ConfigError(f"{name} must fit in a 64-bit integer")
    if config.metric not in METRICS:
        raise ConfigError(f"metric must be one of {METRICS}")
    if not config.name:
        raise ConfigError("name must be nonempty")
    for key in ("ensemble", "n_trajectories", "theta_star"):
        if getattr(config, key) < 1:
            raise ConfigError(f"{key} must be at least 1")
    if config.master_seed < 0:
        raise ConfigError("master_seed must be nonnegative")
    # generate owns the model table; its messages name the config keys
    try:
        _, half_width = config_graph(config)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc
    for grid_name in ("radius_grid", "time_grid", "goodscale_radii",
                      "tolerance_grid", "theta_grid", "mc_exit_radii"):
        grid = getattr(config, grid_name)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"{grid_name} must be strictly increasing")
        if grid and grid[0] < 1:
            raise ConfigError(f"{grid_name} entries must be at least 1")
    if any(t % 2 for t in config.time_grid):
        raise ConfigError("time_grid entries must be even (kernel series alignment)")
    if set(config.mc_exit_radii) - set(config.radius_grid):
        raise ConfigError("mc_exit_radii must be a subset of radius_grid")
    if config.mc_exit_radii and not config.time_grid:
        raise ConfigError("mc_exit_radii need a time_grid: the walk runs to its last step")
    if config.goodscale_radii and len(config.tolerance_grid) < 2:
        raise ConfigError("goodscale_radii need at least two tolerance_grid entries: "
                          "the failure decay is fitted over them")
    if half_width:
        probe = max(config.radius_grid + config.goodscale_radii, default=0)
        check_quarter_distance(probe, half_width, "the window half-width", ConfigError)


def config_graph(config: ExperimentConfig, seed: int = 0):
    """`generate.model_graph` on the config's model keys, with graph seed `seed`."""
    return model_graph(config.model, seed, config.half_width, config.beta, config.tail_exponent,
                       config.rate, config.fixture_name, config.fixture_size or None)


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
