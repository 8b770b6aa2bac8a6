"""Command-line front end.

Exit codes: 0 on success, 2 for configuration or argument problems,
3 when a linear solve fails to converge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import MODELS, PRESET_NAMES, load_config, load_preset, with_overrides
from .errors import ConfigError, InvalidArgumentError, SolverError
from .generate import ExpTailParams, LongRangeParams, fixture, generate_exp_tail, generate_long_range
from .graph import METRICS, dumps_edge_list, read_edge_list, write_edge_list
from .pipeline import run as run_pipeline
from .report import report as build_report
from .resistance import effective_resistance
from .scaling import GrowthFunction, check_good_scale, scale_observables
from .walk import heat_kernel_exact, simulate


def _labels(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidArgumentError(f"bad label list {text!r}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.config)
    if path.exists():
        config = load_config(path)
    elif args.config in PRESET_NAMES:
        config = load_preset(args.config)
    else:
        raise ConfigError(f"no config file or preset named {args.config!r}")
    if args.outdir:
        config = with_overrides(config, outdir=args.outdir)
    record = run_pipeline(config)
    print(f"wrote {record.path} ({record.wallclock_seconds:.1f}s, "
          f"{record.workers} worker(s))")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    target = build_report(args.rundir, args.outdir)
    print(f"wrote {target}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "lrp":
        g = generate_long_range(
            LongRangeParams(args.half_width, args.beta, args.tail_exponent, args.seed)
        )
    elif args.model == "exp":
        g = generate_exp_tail(ExpTailParams(args.half_width, args.rate, args.seed))
    else:
        g = fixture(args.fixture, args.size)
    if args.out:
        write_edge_list(g, args.out)
    else:
        sys.stdout.write(dumps_edge_list(g))
    return 0


def _cmd_resistance(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    value = effective_resistance(g, _labels(args.source), _labels(args.target))
    print(repr(value))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    rows = scale_observables(g, _labels(args.radii), metric=args.metric)
    print("R,complement_resistance,max_pointwise_ratio")
    for row in rows:
        print(f"{row.radius},{row.complement_resistance!r},"
              f"{row.max_pointwise_ratio!r}")
    return 0


def _cmd_heatkernel(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    if args.steps < 2:
        raise InvalidArgumentError("heat kernel horizon must be at least 2 steps")
    table = heat_kernel_exact(g, g.marked, args.steps + 1)
    print("n,p2n,f_n,boundary_mass")
    for n in range(args.steps // 2 + 1):
        p2n = float(table.origin_series[2 * n])
        f_n = table.smoothed(2 * n)
        print(f"{n},{p2n!r},{f_n!r},{float(table.boundary_contact[2 * n])!r}")
    return 0


def _cmd_jcheck(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    rep = check_good_scale(
        g,
        args.radius,
        args.tolerance,
        GrowthFunction(args.volume_exponent, args.volume_log_power),
        GrowthFunction(args.resistance_exponent, args.resistance_log_power),
        metric=args.metric,
    )
    obs = rep.observables
    flags = (
        f"member={str(rep.member).lower()} "
        f"volume={obs.volume!r} volume_ok={str(rep.volume_ok).lower()} "
        f"complement_resistance={obs.complement_resistance!r} "
        f"resistance_ok={str(rep.resistance_ok).lower()} "
        f"max_pointwise_ratio={obs.max_pointwise_ratio!r} "
        f"pointwise_ok={str(rep.pointwise_ok).lower()} "
        f"witness={'' if obs.witness is None else obs.witness}"
    )
    print(f"radius={rep.radius} tolerance={rep.tolerance!r} {flags}")
    return 0


def _cmd_walk(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    if args.steps % 2:
        raise InvalidArgumentError("step count must be even")
    stats = simulate(
        g,
        g.marked,
        args.steps,
        args.trajectories,
        args.seed,
        radii=(args.radius,),
        time_grid=(args.steps,),
        metric=args.metric,
    )
    print("trajectory,exit_time,censored,displacement,max_displacement,"
          "range_weight,range_size")
    for i in range(args.trajectories):
        print(
            f"{i},{int(stats.exit_time[i, 0])},{str(bool(stats.censored[i, 0])).lower()},"
            f"{int(stats.displacement[i, 0])},{int(stats.max_displacement[i, 0])},"
            f"{float(stats.range_weight[i, 0])!r},{int(stats.range_size[i, 0])}"
        )
    return 0


def _add_graph_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph", help="edge-list file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resistive-walk",
        description="Resistance profiles and random walks on sparse random graphs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("run", help="run a configured ensemble experiment")
    sub.add_argument("config", help="config file path or preset name "
                     f"({', '.join(PRESET_NAMES)})")
    sub.add_argument("--outdir", default="", help="override the output directory")
    sub.set_defaults(func=_cmd_run)

    sub = subs.add_parser("report", help="summarize a finished run directory")
    sub.add_argument("rundir")
    sub.add_argument("--outdir", default=None)
    sub.set_defaults(func=_cmd_report)

    sub = subs.add_parser("generate", help="write one graph as an edge list")
    sub.add_argument("--model", choices=MODELS, required=True)
    sub.add_argument("--half-width", type=int, default=128)
    sub.add_argument("--beta", type=float, default=1.0)
    sub.add_argument("--tail-exponent", type=float, default=3.5)
    sub.add_argument("--rate", type=float, default=1.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--fixture", default="line", help="fixture family name")
    sub.add_argument("--size", type=int, default=None)
    sub.add_argument("--out", default="", help="output path (default: stdout)")
    sub.set_defaults(func=_cmd_generate)

    sub = subs.add_parser("resistance", help="effective resistance between label sets")
    _add_graph_arg(sub)
    sub.add_argument("--source", required=True, help="comma-separated labels")
    sub.add_argument("--target", required=True, help="comma-separated labels")
    sub.set_defaults(func=_cmd_resistance)

    sub = subs.add_parser("profile", help="resistance profile around the marked vertex")
    _add_graph_arg(sub)
    sub.add_argument("--radii", required=True, help="comma-separated radii")
    sub.add_argument("--metric", choices=METRICS, default="line")
    sub.set_defaults(func=_cmd_profile)

    sub = subs.add_parser("heatkernel", help="return probabilities at the marked vertex")
    _add_graph_arg(sub)
    sub.add_argument("--steps", type=int, required=True)
    sub.set_defaults(func=_cmd_heatkernel)

    sub = subs.add_parser("jcheck", help="good-scale membership at one radius")
    _add_graph_arg(sub)
    sub.add_argument("--radius", type=int, required=True)
    sub.add_argument("--tolerance", type=float, required=True)
    sub.add_argument("--volume-exponent", type=float, default=1.0)
    sub.add_argument("--volume-log-power", type=float, default=0.0)
    sub.add_argument("--resistance-exponent", type=float, default=1.0)
    sub.add_argument("--resistance-log-power", type=float, default=0.0)
    sub.add_argument("--metric", choices=METRICS, default="line")
    sub.set_defaults(func=_cmd_jcheck)

    sub = subs.add_parser("walk", help="sample trajectories from the marked vertex")
    _add_graph_arg(sub)
    sub.add_argument("--steps", type=int, required=True)
    sub.add_argument("--trajectories", type=int, default=256)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--radius", type=int, required=True)
    sub.add_argument("--metric", choices=METRICS, default="graph")
    sub.set_defaults(func=_cmd_walk)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
