"""Command-line front end.

Exit codes: 0 on success, 1 when standard output closes early (a reader
such as `head` stopped reading), 2 for configuration or argument problems,
sizes included that cannot be allocated, 3 when a linear solve fails to
converge.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import PRESET_NAMES, format_value, load_config, load_preset, write_csv
from .errors import ConfigError, InvalidArgumentError, SolverError
from .generate import MODELS, model_graph
from .graph import INT64, METRICS, check_int, dumps_edge_list, read_edge_list, write_edge_list
from .pipeline import check_good_scale, scale_observables
from .pipeline import run as run_pipeline
from .report import report as build_report
from .resistance import effective_resistance
from .scaling import GrowthFunction
from .walk import heat_kernel_exact, simulate


def _labels(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidArgumentError(f"bad label list {text!r}") from exc


def _int64(text: str) -> int:
    """argparse type of the count and size flags: an integer that fits in int64."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not INT64.min <= value <= INT64.max:
        raise argparse.ArgumentTypeError(f"{text} does not fit in a 64-bit integer")
    return value


def _cmd_run(args: argparse.Namespace) -> int:
    if os.path.exists(args.config):
        config = load_config(args.config)
    elif args.config in PRESET_NAMES:
        config = load_preset(args.config)
    else:
        raise ConfigError(f"no config file or preset named {args.config!r}")
    record = run_pipeline(config, args.outdir)
    print(f"wrote {record.path} ({record.wallclock_seconds:.1f}s, "
          f"{record.workers} worker(s))")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    target = build_report(args.rundir, args.outdir)
    print(f"wrote {target}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    build, _ = model_graph(args.model, args.seed, args.half_width, args.beta,
                           args.tail_exponent, args.rate, args.fixture, args.size)
    g = build()
    if args.out:
        write_edge_list(g, args.out)
    else:
        sys.stdout.write(dumps_edge_list(g))
    return 0


def _cmd_resistance(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    value = effective_resistance(g, _labels(args.source), _labels(args.target))
    print(format_value(value))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    rows = scale_observables(g, _labels(args.radii), metric=args.metric)
    write_csv(sys.stdout, "R,complement_resistance,max_pointwise_ratio",
              ((row.radius, row.complement_resistance, row.max_pointwise_ratio) for row in rows))
    return 0


def _cmd_heatkernel(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    check_int(args.steps, "heat kernel horizon --steps", 2)
    table = heat_kernel_exact(g, g.marked, args.steps + 1)
    write_csv(sys.stdout, "n,p2n,f_n,boundary_mass",
              ((n, *table.row(2 * n)) for n in range(args.steps // 2 + 1)))
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
    fields = {"radius": rep.radius, "tolerance": rep.tolerance, "member": rep.member,
              "volume": obs.volume, "volume_ok": rep.volume_ok,
              "complement_resistance": obs.complement_resistance,
              "resistance_ok": rep.resistance_ok, "max_pointwise_ratio": obs.max_pointwise_ratio,
              "pointwise_ok": rep.pointwise_ok, "witness": obs.witness}
    print(" ".join(f"{key}={format_value(value)}" for key, value in fields.items()))
    return 0


def _cmd_walk(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    if args.steps % 2:
        raise InvalidArgumentError("step count must be even")
    g.check_ball(g.marked, args.radius, args.metric)
    stats = simulate(g, g.marked, args.steps, args.trajectories, args.seed,
                     radii=(args.radius,), time_grid=(args.steps,), metric=args.metric)
    write_csv(sys.stdout,
              "trajectory,exit_time,censored,displacement,max_displacement,range_weight,range_size",
              zip(range(args.trajectories), stats.exit_time[:, 0], stats.censored[:, 0],
                  stats.displacement[:, 0], stats.max_displacement[:, 0],
                  stats.range_weight[:, 0], stats.range_size[:, 0]))
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
    sub.add_argument("--outdir", help="output directory (required)")
    sub.set_defaults(func=_cmd_run)

    sub = subs.add_parser("report", help="summarize a finished run directory")
    sub.add_argument("rundir")
    sub.add_argument("--outdir", default=None)
    sub.set_defaults(func=_cmd_report)

    sub = subs.add_parser("generate", help="write one graph as an edge list")
    sub.add_argument("--model", choices=MODELS, required=True)
    sub.add_argument("--half-width", type=_int64, default=128)
    sub.add_argument("--beta", type=float, default=1.0)
    sub.add_argument("--tail-exponent", type=float, default=3.5)
    sub.add_argument("--rate", type=float, default=1.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--fixture", default="line", help="fixture family name")
    sub.add_argument("--size", type=_int64, default=None)
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
    sub.add_argument("--steps", type=_int64, required=True)
    sub.set_defaults(func=_cmd_heatkernel)

    sub = subs.add_parser("jcheck", help="good-scale membership at one radius")
    _add_graph_arg(sub)
    sub.add_argument("--radius", type=_int64, required=True)
    sub.add_argument("--tolerance", type=float, required=True)
    sub.add_argument("--volume-exponent", type=float, default=1.0)
    sub.add_argument("--volume-log-power", type=float, default=0.0)
    sub.add_argument("--resistance-exponent", type=float, default=1.0)
    sub.add_argument("--resistance-log-power", type=float, default=0.0)
    sub.add_argument("--metric", choices=METRICS, default="line")
    sub.set_defaults(func=_cmd_jcheck)

    sub = subs.add_parser("walk", help="sample trajectories from the marked vertex")
    _add_graph_arg(sub)
    sub.add_argument("--steps", type=_int64, required=True)
    sub.add_argument("--trajectories", type=_int64, default=256)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--radius", type=_int64, required=True)
    sub.add_argument("--metric", choices=METRICS, default="graph")
    sub.set_defaults(func=_cmd_walk)
    return parser


# how numpy refuses an array whose size it cannot address
_SIZE_REFUSALS = ("array is too big", "Maximum allowed size exceeded")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_SIZE_REFUSALS):
            raise
        print(f"error: cannot allocate the requested size ({exc})", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit fails no more (the SIGPIPE note in Python's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
