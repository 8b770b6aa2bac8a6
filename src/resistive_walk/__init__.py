"""Resistance profiles, heat kernels, and random walks on sparse random graphs."""

from .config import ExperimentConfig, load_config, load_preset, parse_config
from .errors import ConfigError, InvalidArgumentError, SolverError, TruncationError
from .generate import (
    ExpTailParams,
    LongRangeParams,
    fixture,
    generate_exp_tail,
    generate_long_range,
    mix_seed,
)
from .graph import Graph, dumps_edge_list, loads_edge_list, read_edge_list, write_edge_list
from .resistance import (
    OriginResistanceCache,
    dirichlet_potential,
    effective_resistance,
    green_row,
    project_long_bonds,
    projected_complement_resistance,
)
from .scaling import (
    GrowthFunction,
    check_good_scale,
    displacement_scale,
    evaluate_good_scale,
    fit_spectral_dimension,
    scale_observables,
)
from .walk import heat_kernel_exact, mean_exit_time_exact, simulate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExpTailParams",
    "ExperimentConfig",
    "Graph",
    "GrowthFunction",
    "InvalidArgumentError",
    "LongRangeParams",
    "OriginResistanceCache",
    "SolverError",
    "TruncationError",
    "check_good_scale",
    "dirichlet_potential",
    "displacement_scale",
    "dumps_edge_list",
    "effective_resistance",
    "evaluate_good_scale",
    "fit_spectral_dimension",
    "fixture",
    "generate_exp_tail",
    "generate_long_range",
    "green_row",
    "heat_kernel_exact",
    "load_config",
    "load_preset",
    "loads_edge_list",
    "mean_exit_time_exact",
    "mix_seed",
    "parse_config",
    "project_long_bonds",
    "projected_complement_resistance",
    "read_edge_list",
    "scale_observables",
    "simulate",
    "write_edge_list",
]
