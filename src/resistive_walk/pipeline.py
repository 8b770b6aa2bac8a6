"""Run ensemble experiments described by an ExperimentConfig.

Each ensemble member is generated, measured, and reduced independently;
the reduction orders results by member index, so outputs are identical
for any worker count.  Graph i draws its bonds from the stream seeded by
mix_seed(master_seed, 2i) and its walks from mix_seed(master_seed, 2i+1).
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    config_hash,
    serialize_config,
    validate_config,
)
from .errors import ConfigError, InvalidArgumentError
from .generate import (
    ExpTailParams,
    LongRangeParams,
    fixture,
    generate_exp_tail,
    generate_long_range,
    mix_seed,
)
from .graph import Graph, write_edge_list
from .resistance import (
    OriginResistanceCache,
    effective_resistance,
    max_pointwise_ratios,
)
from .scaling import (
    GoodScaleReport,
    GrowthFunction,
    ScaleObservables,
    bootstrap_mean_ci,
    displacement_scale,
    evaluate_good_scale,
    failure_decay_fit,
    fit_loglog,
    fit_spectral_dimension,
    tightness_table,
)
from .walk import heat_kernel_exact, mean_exit_time_exact, simulate

WORKERS_ENV = "RESISTIVE_WALK_WORKERS"


def graph_seed(master_seed: int, index: int) -> int:
    return mix_seed(master_seed, 2 * index)


def walk_seed(master_seed: int, index: int) -> int:
    return mix_seed(master_seed, 2 * index + 1)


def build_graph(config: ExperimentConfig, index: int) -> Graph:
    """Deterministically build ensemble member `index`."""
    seed = graph_seed(config.master_seed, index)
    if config.model == "lrp":
        return generate_long_range(
            LongRangeParams(config.half_width, config.beta, config.tail_exponent, seed)
        )
    if config.model == "exp":
        return generate_exp_tail(ExpTailParams(config.half_width, config.rate, seed))
    return fixture(config.fixture_name, config.fixture_size or None)


def growth_functions(config: ExperimentConfig) -> tuple[GrowthFunction, GrowthFunction]:
    return (
        GrowthFunction(config.volume_exponent, config.volume_log_power),
        GrowthFunction(config.resistance_exponent, config.resistance_log_power),
    )


def member_observables(config: ExperimentConfig, index: int) -> dict:
    """All per-graph observables for one ensemble member."""
    g = build_graph(config, index)
    origin = g.marked
    metric = config.metric
    dist = g.distances_from(origin, metric)
    volume_growth, resistance_growth = growth_functions(config)

    # a loop of its own, not scale_observables: perfbench wraps the solver names here
    radii_all = sorted(set(config.radius_grid) | set(config.goodscale_radii))
    volumes = {R: float(g.measure[dist < R].sum()) for R in radii_all}
    complement = {}
    for R in radii_all:
        outside = g.labels[dist >= R]
        complement[R] = effective_resistance(g, [origin], outside)

    pointwise: dict[int, tuple[float, int | None]] = {}
    goodscale: dict[int, list[GoodScaleReport]] = {}
    if config.goodscale_radii:
        ratios = max_pointwise_ratios(
            g, config.goodscale_radii, metric, resistance_growth, OriginResistanceCache(g)
        )
        pointwise = dict(zip(config.goodscale_radii, ratios))
        for R, (ratio, witness) in pointwise.items():
            obs = ScaleObservables(R, volumes[R], complement[R], ratio, witness)
            goodscale[R] = [
                evaluate_good_scale(obs, lam, volume_growth, resistance_growth)
                for lam in config.tolerance_grid
            ]

    exit_exact = {
        R: mean_exit_time_exact(g, origin, R, metric) for R in config.radius_grid
    }

    kernel_rows: list[tuple[int, float, float, float]] = []
    contaminated_from = None
    if config.time_grid:
        horizon = max(config.time_grid) + 1
        table = heat_kernel_exact(g, origin, horizon)
        for t in config.time_grid:
            kernel_rows.append(
                (
                    t // 2,
                    float(table.origin_series[t]),
                    table.smoothed(t),
                    float(table.boundary_contact[t]),
                )
            )
        contaminated_from = table.contaminated_from

    walk_rows: list[tuple[int, float, float, float, float]] = []
    disp_matrix = np.zeros((config.n_trajectories, 0), dtype=np.int32)
    mc_exit: dict[int, tuple[float | None, int]] = {}
    if config.time_grid:
        stats = simulate(
            g,
            origin,
            max(config.time_grid),
            config.n_trajectories,
            walk_seed(config.master_seed, index),
            radii=config.mc_exit_radii,
            time_grid=config.time_grid,
            metric=metric,
        )
        for j, t in enumerate(config.time_grid):
            walk_rows.append(
                (
                    t,
                    float(stats.displacement[:, j].mean()),
                    float(stats.range_weight[:, j].mean()),
                    float(stats.range_size[:, j].mean()),
                    float((stats.endpoint[:, j] == origin).mean()),
                )
            )
        disp_matrix = stats.displacement.astype(np.int32)
        for j, R in enumerate(stats.radii):
            live = ~stats.censored[:, j]
            mean = float(stats.exit_time[live, j].mean()) if live.any() else None
            mc_exit[int(R)] = (mean, int(stats.censored[:, j].sum()))

    return {
        "index": index,
        "volumes": volumes,
        "complement": complement,
        "pointwise": pointwise,
        "goodscale": goodscale,
        "exit_exact": exit_exact,
        "kernel": kernel_rows,
        "contaminated_from": contaminated_from,
        "walk": walk_rows,
        "disp_matrix": disp_matrix,
        "mc_exit": mc_exit,
    }


# -- output files -----------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _as_builtin(obj):
    if isinstance(obj, dict):
        return {str(k): _as_builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_builtin(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_as_builtin(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


@dataclass(frozen=True)
class RunRecord:
    path: Path
    config: ExperimentConfig
    hash: str
    summary: dict
    workers: int
    wallclock_seconds: float


def _fit_or_error(fit_fun, xs, ys) -> dict:
    try:
        fit = fit_fun(xs, ys)
    except InvalidArgumentError as exc:
        return {"error": str(exc)}
    return {
        "value": fit.value,
        "stderr": fit.stderr,
        "window": list(fit.window),
        "n_points": fit.n_points,
        "full_value": fit.full_value,
        "full_stderr": fit.full_stderr,
    }


def build_summary(config: ExperimentConfig, results: list[dict]) -> dict:
    volume_growth, resistance_growth = growth_functions(config)
    n_graphs = len(results)
    summary: dict = {
        "name": config.name,
        "config_hash": config_hash(config),
        "ensemble": n_graphs,
    }

    radii = list(config.radius_grid)
    times = list(config.time_grid)
    m_grid = [t // 2 for t in times]
    prediction_R = np.asarray([volume_growth(R) * resistance_growth(R) for R in radii])
    scale_m = np.asarray(
        [displacement_scale(volume_growth, resistance_growth, m) for m in m_grid]
    )
    scale_t = np.asarray(
        [displacement_scale(volume_growth, resistance_growth, t) for t in times]
    )

    series: dict = {
        "radius_grid": radii,
        "time_grid": times,
        "m_grid": m_grid,
        "scale_m": scale_m,
        "scale_t": scale_t,
    }
    boot = 0

    def ci(samples: np.ndarray) -> dict:
        nonlocal boot
        boot += 1
        mean, lo, hi = bootstrap_mean_ci(
            samples, seed=mix_seed(config.master_seed, 999_000_000 + boot)
        )
        return {"mean": mean, "ci_lo": lo, "ci_hi": hi}

    exit_ratio_matrix = np.zeros((n_graphs, 0))
    kernel_ratio_matrix = np.zeros((n_graphs, 0))

    if radii:
        exit_samples = np.asarray(
            [[res["exit_exact"][R] for R in radii] for res in results]
        )
        rv_samples = np.asarray(
            [
                [res["complement"][R] * res["volumes"][R] for R in radii]
                for res in results
            ]
        )
        series["exit"] = ci(exit_samples)
        series["resistance_volume"] = ci(rv_samples)
        series["exit_ratio"] = series["exit"]["mean"] / prediction_R
        series["resistance_volume_ratio"] = series["resistance_volume"]["mean"] / prediction_R
        exit_ratio_matrix = exit_samples / prediction_R
        summary["fits_exit"] = _fit_or_error(fit_loglog, radii, series["exit"]["mean"])

    if times:
        p2m_samples = np.asarray(
            [[row[1] for row in res["kernel"]] for res in results]
        )
        disp_mean_samples = np.asarray(
            [[row[1] for row in res["walk"]] for res in results]
        )
        range_samples = np.asarray(
            [[row[2] for row in res["walk"]] for res in results]
        )
        series["kernel"] = ci(p2m_samples)
        series["displacement"] = ci(disp_mean_samples)
        series["range_weight"] = ci(range_samples)
        v_of_scale = np.asarray([volume_growth(s) for s in scale_m])
        series["kernel_ratio"] = series["kernel"]["mean"] * v_of_scale
        series["displacement_ratio"] = series["displacement"]["mean"] / scale_t
        kernel_ratio_matrix = p2m_samples * v_of_scale
        summary["fits_spectral"] = _fit_or_error(
            fit_spectral_dimension, m_grid, series["kernel"]["mean"]
        )
        summary["fits_range"] = _fit_or_error(
            fit_loglog, times, series["range_weight"]["mean"]
        )
        summary["fits_displacement"] = _fit_or_error(
            fit_loglog, times, series["displacement"]["mean"]
        )

    summary["series"] = series

    if config.goodscale_radii:
        fractions: dict[int, list[float]] = {}
        decay: dict[int, dict] = {}
        for R in config.goodscale_radii:
            members = [
                sum(not res["goodscale"][R][j].member for res in results) / n_graphs
                for j in range(len(config.tolerance_grid))
            ]
            fractions[R] = members
            fit = failure_decay_fit(config.tolerance_grid, members, n_graphs)
            decay[R] = {"rate": fit.rate, "floored": fit.floored}
        summary["goodscale"] = {
            "radii": list(config.goodscale_radii),
            "tolerances": list(config.tolerance_grid),
            "failure_fractions": fractions,
            "decay": decay,
        }

    if times and config.theta_grid:
        displacements = np.vstack([res["disp_matrix"] for res in results])
        thetas = sorted(set(config.theta_grid) | {config.theta_star})
        rows = tightness_table(
            thetas, exit_ratio_matrix, kernel_ratio_matrix, displacements, scale_t
        )
        summary["tightness"] = {
            "thetas": [row.theta for row in rows],
            "exit": [row.exit_fraction for row in rows],
            "kernel": [row.kernel_fraction for row in rows],
            "displacement_upper": [row.displacement_upper for row in rows],
            "displacement_lower": [row.displacement_lower for row in rows],
            "theta_star": config.theta_star,
        }

    contacts = [row[3] for res in results for row in res["kernel"]]
    summary["boundary"] = {
        "max_contact": max(contacts) if contacts else 0.0,
        "contaminated_graphs": sum(
            1 for res in results if res["contaminated_from"] is not None
        ),
    }
    if config.mc_exit_radii:
        table = []
        for R in config.mc_exit_radii:
            means = [res["mc_exit"][R][0] for res in results]
            live = [m for m in means if m is not None]
            table.append(
                {
                    "radius": R,
                    "mc_mean": sum(live) / len(live) if live else None,
                    "censored": sum(res["mc_exit"][R][1] for res in results),
                    "exact_mean": float(
                        np.mean([res["exit_exact"][R] for res in results])
                    ),
                }
            )
        summary["mc_exit"] = table
    return _as_builtin(summary)


def run(
    config: ExperimentConfig,
    outdir: str | os.PathLike | None = None,
    workers: int | None = None,
) -> RunRecord:
    """Execute the configured experiment and persist all outputs."""
    validate_config(config)
    started = time.time()
    target = Path(outdir) if outdir is not None else Path(config.outdir)
    if str(target) in ("", "."):
        raise ConfigError("an output directory is required (outdir)")
    if workers is None:
        try:
            workers = int(os.environ.get(WORKERS_ENV, "1"))
        except ValueError as exc:
            raise ConfigError(f"bad {WORKERS_ENV} value") from exc
    if workers < 1:
        raise ConfigError("worker count must be positive")

    indices = range(config.ensemble)
    if workers == 1:
        results = [member_observables(config, i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(partial(member_observables, config), indices))

    obs_dir = target / "observables"
    obs_dir.mkdir(parents=True, exist_ok=True)

    radii_all = sorted(set(config.radius_grid) | set(config.goodscale_radii))
    _write_csv(
        obs_dir / "volumes.csv",
        "graph,R,volume",
        ((res["index"], R, res["volumes"][R]) for res in results for R in radii_all),
    )
    _write_csv(
        obs_dir / "resistance.csv",
        "graph,R,complement_resistance",
        ((res["index"], R, res["complement"][R]) for res in results for R in radii_all),
    )
    _write_csv(
        obs_dir / "pointwise.csv",
        "graph,R,max_ratio,witness",
        (
            (res["index"], R, res["pointwise"][R][0], res["pointwise"][R][1])
            for res in results
            for R in config.goodscale_radii
        ),
    )
    _write_csv(
        obs_dir / "exit_exact.csv",
        "graph,R,mean_exit",
        (
            (res["index"], R, res["exit_exact"][R])
            for res in results
            for R in config.radius_grid
        ),
    )
    _write_csv(
        obs_dir / "kernel.csv",
        "graph,n,p2n,f_n,boundary_mass",
        ((res["index"], *row) for res in results for row in res["kernel"]),
    )
    _write_csv(
        obs_dir / "walk.csv",
        "graph,n,mean_displacement,mean_range_weight,mean_range_size,return_frequency",
        ((res["index"], *row) for res in results for row in res["walk"]),
    )
    _write_csv(
        obs_dir / "walk_exit.csv",
        "graph,R,mc_mean_exit,censored,trajectories",
        (
            (res["index"], R, res["mc_exit"][R][0], res["mc_exit"][R][1],
             config.n_trajectories)
            for res in results
            for R in config.mc_exit_radii
        ),
    )
    _write_csv(
        obs_dir / "displacements.csv",
        "graph,trajectory,n,distance",
        (
            (res["index"], tr, t, int(res["disp_matrix"][tr, j]))
            for res in results
            for tr in range(res["disp_matrix"].shape[0])
            for j, t in enumerate(config.time_grid)
        ),
    )

    summary = build_summary(config, results)
    if config.goodscale_radii:
        rows = [
            (
                res["index"], R, lam, rep.member,
                rep.volume_ok, rep.resistance_ok, rep.pointwise_ok,
            )
            for res in results
            for R in config.goodscale_radii
            for lam, rep in zip(config.tolerance_grid, res["goodscale"][R])
        ]
        _write_csv(
            obs_dir / "goodscale.csv",
            "graph,R,lambda,member,volume_ok,resistance_ok,pointwise_ok",
            rows,
        )

    if config.store_graphs:
        graph_dir = target / "graphs"
        graph_dir.mkdir(exist_ok=True)
        for i in indices:
            write_edge_list(build_graph(config, i), graph_dir / f"graph_{i:04d}.edges")

    (target / "config.cfg").write_text(serialize_config(config))
    with open(target / "summary.json", "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    wallclock = time.time() - started
    record = {
        "config_hash": config_hash(config),
        "version": __version__,
        "workers": workers,
        "wallclock_seconds": wallclock,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
    }
    with open(target / "record.json", "w", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return RunRecord(
        path=target,
        config=config,
        hash=config_hash(config),
        summary=summary,
        workers=workers,
        wallclock_seconds=wallclock,
    )
