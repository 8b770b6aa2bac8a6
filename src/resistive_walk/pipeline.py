"""Measure graphs and run ensemble experiments described by an ExperimentConfig.

`ball_observables` measures the balls about the marked vertex; the graph
measurements `scale_observables` and `check_good_scale` and the ensemble
member `member_observables` all go through it.

Each ensemble member is generated, measured, and reduced independently;
the reduction orders results by member index, so outputs are identical
for any worker count.  Graph i draws its bonds from the stream seeded by
mix_seed(master_seed, 2i) and its walks from mix_seed(master_seed, 2i+1).
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    config_graph,
    config_hash,
    serialize_config,
    validate_config,
    write_csv,
)
from .errors import ConfigError, InvalidArgumentError
from .generate import mix_seed
from .graph import Graph, check_radius, dumps_edge_list, write_files
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
    check_tolerance,
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
    return config_graph(config, graph_seed(config.master_seed, index))[0]()


def growth_functions(config: ExperimentConfig) -> tuple[GrowthFunction, GrowthFunction]:
    return (
        GrowthFunction(config.volume_exponent, config.volume_log_power),
        GrowthFunction(config.resistance_exponent, config.resistance_log_power),
    )


def ball_radii(config: ExperimentConfig) -> list[int]:
    """Radii whose ball volume and complement resistance a member measures, ascending."""
    return sorted(set(config.radius_grid) | set(config.goodscale_radii))


# in pipeline, not scaling: perfbench wraps the solver names that this module looks up
def ball_observables(g: Graph, radii: Sequence[int], metric: str) -> tuple[np.ndarray, ...]:
    """Per radius: the volume of the ball about the marked vertex, and the resistance to
    its complement; every radius must pass `Graph.check_ball` first."""
    dist = g.distances_from(g.marked, metric)
    for R in radii:
        g.check_ball(g.marked, R, metric)
    volumes = np.array([g.volume(g.marked, R, metric) for R in radii])
    complement = np.array(
        [effective_resistance(g, [g.marked], g.labels[dist >= R]) for R in radii]
    )
    return volumes, complement


def scale_observables(
    g: Graph,
    radii: Sequence[int],
    metric: str = "line",
    resistance_growth: GrowthFunction | None = None,
) -> list[ScaleObservables]:
    """Measure the three clause quantities at each radius.

    Radii come back sorted, duplicates kept; at least one is needed, and each
    must pass `Graph.check_ball`.  One `max_pointwise_ratios` call gives every
    pointwise ratio; it factors once, and only when some ball holds a target.
    """
    radii = sorted(map(check_radius, radii))
    if not radii:
        raise InvalidArgumentError("at least one radius is needed")
    volumes, complement = ball_observables(g, radii, metric)
    ratios = max_pointwise_ratios(g, radii, metric, resistance_growth, OriginResistanceCache)
    return [
        ScaleObservables(R, volume, reff, *pair)
        for R, volume, reff, pair in zip(radii, volumes.tolist(), complement.tolist(), ratios)
    ]


def check_good_scale(
    g: Graph,
    radius: int,
    tolerance: float,
    volume_growth: GrowthFunction,
    resistance_growth: GrowthFunction,
    metric: str = "line",
) -> GoodScaleReport:
    """Full three-clause membership test for one (radius, tolerance) pair; the
    tolerance is checked before any ball is measured."""
    check_tolerance(tolerance)
    obs = scale_observables(g, [radius], metric, resistance_growth)[0]
    return evaluate_good_scale(obs, tolerance, volume_growth, resistance_growth)


def member_observables(config: ExperimentConfig, index: int) -> dict:
    """All per-graph observables for one ensemble member, and its graph as text if stored.

    Each observable is one array or list, indexed like its config grid:
    `volumes`, `complement` by `ball_radii`; `pointwise` ((ratio, witness)
    pairs) by `goodscale_radii`; `goodscale` (volume, resistance and
    pointwise clause flags) by `goodscale_radii` x `tolerance_grid`;
    `exit_exact` by `radius_grid`; `kernel` (p2n, f_n, boundary mass) and
    `walk` (the `walk.csv` columns) by `time_grid`; `disp_matrix` by
    trajectory x `time_grid`; `mc_exit` ((mean or None, censored count)
    pairs) by `mc_exit_radii`.
    """
    g = build_graph(config, index)
    origin = g.marked
    metric = config.metric
    volume_growth, resistance_growth = growth_functions(config)

    radii = ball_radii(config)
    volumes, complement = ball_observables(g, radii, metric)

    pointwise = max_pointwise_ratios(
        g, config.goodscale_radii, metric, resistance_growth, OriginResistanceCache
    )
    flags = []
    at = np.searchsorted(radii, config.goodscale_radii)
    for R, k, pair in zip(config.goodscale_radii, at, pointwise):
        obs = ScaleObservables(R, volumes[k], complement[k], *pair)
        for lam in config.tolerance_grid:
            rep = evaluate_good_scale(obs, lam, volume_growth, resistance_growth)
            flags.append((rep.volume_ok, rep.resistance_ok, rep.pointwise_ok))
    goodscale = np.array(flags, dtype=bool).reshape(
        len(config.goodscale_radii), len(config.tolerance_grid), 3
    )

    exit_exact = np.array(
        [mean_exit_time_exact(g, origin, R, metric) for R in config.radius_grid]
    )

    kernel = np.zeros((0, 3))
    walk = np.zeros((0, 4))
    disp_matrix = np.zeros((config.n_trajectories, 0), dtype=np.int32)
    mc_exit: list[tuple[float | None, int]] = []
    contaminated_from = None
    if config.time_grid:
        table = heat_kernel_exact(g, origin, max(config.time_grid) + 1)
        kernel = np.array(
            [
                (table.origin_series[t], table.smoothed(t), table.boundary_contact[t])
                for t in config.time_grid
            ]
        )
        contaminated_from = table.contaminated_from
        stats = simulate(g, origin, max(config.time_grid), config.n_trajectories,
                         walk_seed(config.master_seed, index), radii=config.mc_exit_radii,
                         time_grid=config.time_grid, metric=metric)
        walk = np.array(
            [
                (
                    stats.displacement[:, j].mean(),
                    stats.range_weight[:, j].mean(),
                    stats.range_size[:, j].mean(),
                    stats.return_frequency(j),
                )
                for j in range(len(config.time_grid))
            ]
        )
        disp_matrix = stats.displacement.astype(np.int32)
        for j in range(len(config.mc_exit_radii)):
            live = ~stats.censored[:, j]
            mean = float(stats.exit_time[live, j].mean()) if live.any() else None
            mc_exit.append((mean, int(stats.censored[:, j].sum())))

    return {
        "index": index,
        "volumes": volumes,
        "complement": complement,
        "pointwise": pointwise,
        "goodscale": goodscale,
        "exit_exact": exit_exact,
        "kernel": kernel,
        "contaminated_from": contaminated_from,
        "walk": walk,
        "disp_matrix": disp_matrix,
        "mc_exit": mc_exit,
        "edge_list": dumps_edge_list(g) if config.store_graphs else None,
    }


# -- output files -----------------------------------------------------------


def _displacement_rows(config: ExperimentConfig, member: dict):
    for trajectory, row in enumerate(member["disp_matrix"]):
        for t, distance in zip(config.time_grid, row):
            yield trajectory, t, distance


def _goodscale_rows(config: ExperimentConfig, member: dict):
    for R, by_tolerance in zip(config.goodscale_radii, member["goodscale"]):
        for lam, clauses in zip(config.tolerance_grid, by_tolerance):
            yield R, lam, clauses.all(), *clauses


# (file, header, rows of one member): each row gets the member's graph index in front
OBSERVABLE_FILES = (
    ("volumes.csv", "graph,R,volume",
     lambda c, m: zip(ball_radii(c), m["volumes"])),
    ("resistance.csv", "graph,R,complement_resistance",
     lambda c, m: zip(ball_radii(c), m["complement"])),
    ("pointwise.csv", "graph,R,max_ratio,witness",
     lambda c, m: ((R, *pair) for R, pair in zip(c.goodscale_radii, m["pointwise"]))),
    ("exit_exact.csv", "graph,R,mean_exit",
     lambda c, m: zip(c.radius_grid, m["exit_exact"])),
    ("kernel.csv", "graph,n,p2n,f_n,boundary_mass",
     lambda c, m: zip([t // 2 for t in c.time_grid], *m["kernel"].T)),
    ("walk.csv",
     "graph,n,mean_displacement,mean_range_weight,mean_range_size,return_frequency",
     lambda c, m: zip(c.time_grid, *m["walk"].T)),
    ("walk_exit.csv", "graph,R,mc_mean_exit,censored,trajectories",
     lambda c, m: ((R, *e, c.n_trajectories) for R, e in zip(c.mc_exit_radii, m["mc_exit"]))),
    ("displacements.csv", "graph,trajectory,n,distance", _displacement_rows),
    ("goodscale.csv", "graph,R,lambda,member,volume_ok,resistance_ok,pointwise_ok",
     _goodscale_rows),
)


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
    return asdict(fit)


def build_summary(config: ExperimentConfig, results: list[dict]) -> dict:
    volume_growth, resistance_growth = growth_functions(config)
    n_graphs = len(results)
    summary: dict = {
        "name": config.name,
        "config_hash": config_hash(config),
        "ensemble": n_graphs,
    }

    def stacked(key: str) -> np.ndarray:
        return np.stack([res[key] for res in results])

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
    v_of_scale = np.asarray([volume_growth(s) for s in scale_m])

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

    exit_samples = stacked("exit_exact")
    kernel = stacked("kernel")
    walk = stacked("walk")
    exit_ratio_matrix = exit_samples / prediction_R
    kernel_ratio_matrix = kernel[:, :, 0] * v_of_scale

    if radii:
        at = np.searchsorted(ball_radii(config), radii)
        rv_samples = stacked("complement")[:, at] * stacked("volumes")[:, at]
        series["exit"] = ci(exit_samples)
        series["resistance_volume"] = ci(rv_samples)
        series["exit_ratio"] = series["exit"]["mean"] / prediction_R
        series["resistance_volume_ratio"] = series["resistance_volume"]["mean"] / prediction_R
        summary["fits_exit"] = _fit_or_error(fit_loglog, radii, series["exit"]["mean"])

    if times:
        series["kernel"] = ci(kernel[:, :, 0])
        series["displacement"] = ci(walk[:, :, 0])
        series["range_weight"] = ci(walk[:, :, 1])
        series["kernel_ratio"] = series["kernel"]["mean"] * v_of_scale
        series["displacement_ratio"] = series["displacement"]["mean"] / scale_t
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
        failures = ~stacked("goodscale").all(axis=3)
        fractions = (failures.sum(axis=0) / n_graphs).tolist()
        fits = [failure_decay_fit(config.tolerance_grid, f, n_graphs) for f in fractions]
        summary["goodscale"] = {
            "radii": list(config.goodscale_radii),
            "tolerances": list(config.tolerance_grid),
            "failure_fractions": dict(zip(config.goodscale_radii, fractions)),
            "decay": {
                R: {"rate": fit.rate, "floored": fit.floored}
                for R, fit in zip(config.goodscale_radii, fits)
            },
        }

    if radii and times and config.theta_grid:
        displacements = np.vstack([res["disp_matrix"] for res in results])
        thetas = sorted(set(config.theta_grid) | {config.theta_star})
        summary["tightness"] = {
            **tightness_table(
                thetas, exit_ratio_matrix, kernel_ratio_matrix, displacements, scale_t
            ),
            "theta_star": config.theta_star,
        }

    summary["boundary"] = {
        "max_contact": kernel[:, :, 2].max() if kernel.size else 0.0,
        "contaminated_graphs": sum(res["contaminated_from"] is not None for res in results),
    }
    if config.mc_exit_radii:
        table = []
        for j, R in enumerate(config.mc_exit_radii):
            means, censored = zip(*(res["mc_exit"][j] for res in results))
            live = [m for m in means if m is not None]
            table.append(
                {
                    "radius": R,
                    "mc_mean": sum(live) / len(live) if live else None,
                    "censored": sum(censored),
                    "exact_mean": float(np.mean(exit_samples[:, radii.index(R)])),
                }
            )
        summary["mc_exit"] = table
    return json.loads(json.dumps(summary, default=lambda o: o.tolist()))


def run(
    config: ExperimentConfig,
    outdir: str | os.PathLike | None = None,
    workers: int | None = None,
) -> RunRecord:
    """Execute the configured experiment, render every output file, then write them all.

    The output directory must be new or empty; it is checked before any member runs.
    """
    validate_config(config)
    started = time.time()
    if outdir is None or str(Path(outdir)) == ".":
        raise ConfigError("an output directory is required (outdir, --outdir DIR)")
    target = Path(outdir)
    if workers is None:
        try:
            workers = int(os.environ.get(WORKERS_ENV, "1"))
        except ValueError as exc:
            raise ConfigError(f"bad {WORKERS_ENV} value") from exc
    if workers < 1:
        raise ConfigError("worker count must be positive")
    # refuse the output path before any member runs, creating nothing; a name
    # the system cannot stat (too long, say) counts as absent
    existing = next(p for p in (target, *target.parents) if os.path.exists(p))
    if not existing.is_dir():
        raise ConfigError(f"output path {existing} is not a directory")
    try:
        used = existing == target and any(target.iterdir())
        name_max = os.pathconf(existing, "PC_NAME_MAX")
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {target}: {exc}") from exc
    if used:
        raise ConfigError(f"output directory {target} is not empty")
    if any(len(os.fsencode(name)) > name_max for name in target.relative_to(existing).parts):
        raise InvalidArgumentError(f"cannot write {target}: a name exceeds {name_max} bytes")

    indices = range(config.ensemble)
    if workers == 1:
        results = [member_observables(config, i) for i in indices]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(partial(member_observables, config), indices))

    summary = build_summary(config, results)
    files = {}
    for name, header, member_rows in OBSERVABLE_FILES:
        text = io.StringIO()
        write_csv(text, header,
                  ((res["index"], *row) for res in results for row in member_rows(config, res)))
        files[target / "observables" / name] = text.getvalue()
    if config.store_graphs:
        for res in results:
            files[target / "graphs" / f"graph_{res['index']:04d}.edges"] = res["edge_list"]
    files[target / "config.cfg"] = serialize_config(config)
    files[target / "summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    write_files(files)
    wallclock = time.time() - started
    record = {
        "config_hash": summary["config_hash"],
        "version": __version__,
        "workers": workers,
        "wallclock_seconds": wallclock,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
    }
    write_files({target / "record.json": json.dumps(record, indent=2, sort_keys=True) + "\n"})
    return RunRecord(
        path=target,
        config=config,
        hash=summary["config_hash"],
        summary=summary,
        workers=workers,
        wallclock_seconds=wallclock,
    )
