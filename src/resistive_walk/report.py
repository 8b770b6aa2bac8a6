"""Turn a finished run directory into plot-ready tables and a text digest."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import InvalidArgumentError


# top-level summary fields that `report` reads, with their JSON types
SUMMARY_FIELDS = {
    "name": str, "ensemble": int, "config_hash": str, "series": dict,
    "goodscale": dict, "tightness": dict, "boundary": dict, "mc_exit": list,
}


def _write_dat(path: Path, header: str, columns) -> None:
    rows = list(zip(*columns))
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {header}\n")
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _fit_line(label: str, fit: dict | None) -> str:
    if not fit:
        return f"{label}: not computed\n"
    if "error" in fit:
        return f"{label}: {fit['error']}\n"
    lo, hi = fit["window"]
    return (
        f"{label}: {fit['value']:.4f} +- {fit['stderr']:.4f} "
        f"(window [{lo:g}, {hi:g}], {fit['n_points']} points; "
        f"all points {fit['full_value']:.4f} +- {fit['full_stderr']:.4f})\n"
    )


def _spread(values) -> float | None:
    live = [v for v in values if v > 0]
    if not live:
        return None
    return max(live) / min(live)


def report(run_dir: str | os.PathLike, outdir: str | os.PathLike | None = None) -> Path:
    """Write .dat tables and summary.txt for the run stored at `run_dir`."""
    run_dir = Path(run_dir)
    summary_path = run_dir / "summary.json"
    if not summary_path.exists():
        raise InvalidArgumentError(f"no summary.json under {run_dir}")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read {summary_path}: {exc}") from exc
    if not (isinstance(summary, dict) and {"name", "ensemble", "config_hash"} <= summary.keys()):
        raise InvalidArgumentError(f"{summary_path} lacks name, ensemble or config_hash")
    wrong = [k for k, t in SUMMARY_FIELDS.items() if k in summary and not isinstance(summary[k], t)]
    if wrong:
        raise InvalidArgumentError(f"{summary_path}: wrong type for {', '.join(wrong)}")
    target = Path(outdir) if outdir is not None else run_dir / "report"
    target.mkdir(parents=True, exist_ok=True)

    series = summary.get("series", {})
    radii = series.get("radius_grid", [])
    times = series.get("time_grid", [])
    text = [f"run {summary['name']} ({summary['ensemble']} graphs, "
            f"hash {summary['config_hash'][:12]})\n"]

    if radii and "exit" in series:
        _write_dat(
            target / "exit.dat",
            "R mean_exit ci_lo ci_hi ratio",
            (radii, series["exit"]["mean"], series["exit"]["ci_lo"],
             series["exit"]["ci_hi"], series["exit_ratio"]),
        )
        _write_dat(
            target / "resistance_volume.dat",
            "R mean ci_lo ci_hi ratio",
            (radii, series["resistance_volume"]["mean"],
             series["resistance_volume"]["ci_lo"],
             series["resistance_volume"]["ci_hi"],
             series["resistance_volume_ratio"]),
        )
        text.append(_fit_line("exit-time exponent", summary.get("fits_exit")))
        spread = _spread(series["exit_ratio"])
        if spread is not None:
            text.append(f"exit/prediction spread (all R): {spread:.3f}\n")

    if times and "kernel" in series:
        _write_dat(
            target / "kernel.dat",
            "n p2n ci_lo ci_hi ratio",
            (series["m_grid"], series["kernel"]["mean"], series["kernel"]["ci_lo"],
             series["kernel"]["ci_hi"], series["kernel_ratio"]),
        )
        _write_dat(
            target / "displacement.dat",
            "n mean ci_lo ci_hi ratio",
            (times, series["displacement"]["mean"], series["displacement"]["ci_lo"],
             series["displacement"]["ci_hi"], series["displacement_ratio"]),
        )
        _write_dat(
            target / "range.dat",
            "n mean ci_lo ci_hi",
            (times, series["range_weight"]["mean"], series["range_weight"]["ci_lo"],
             series["range_weight"]["ci_hi"]),
        )
        text.append(_fit_line("spectral dimension", summary.get("fits_spectral")))
        text.append(_fit_line("range exponent", summary.get("fits_range")))
        text.append(_fit_line("displacement exponent", summary.get("fits_displacement")))

    goodscale = summary.get("goodscale")
    if goodscale:
        lams = goodscale["tolerances"]
        for key, fractions in sorted(
            goodscale["failure_fractions"].items(), key=lambda kv: int(kv[0])
        ):
            _write_dat(target / f"goodscale_R{key}.dat", "lambda failure_fraction",
                       (lams, fractions))
            decay = goodscale["decay"][key]
            floored = " (floored tail)" if decay["floored"] else ""
            text.append(
                f"good-scale failure decay at R={key}: "
                f"rate {decay['rate']:.3f}{floored}\n"
            )

    tightness = summary.get("tightness")
    if tightness:
        _write_dat(
            target / "tightness.dat",
            "theta exit kernel displacement_upper displacement_lower",
            (tightness["thetas"], tightness["exit"], tightness["kernel"],
             tightness["displacement_upper"], tightness["displacement_lower"]),
        )
        star = tightness["theta_star"]
        k = tightness["thetas"].index(star)
        text.append(
            f"tightness at theta*={star:g}: exit {tightness['exit'][k]:.3f}, "
            f"kernel {tightness['kernel'][k]:.3f}, displacement "
            f"{tightness['displacement_upper'][k]:.3f}/"
            f"{tightness['displacement_lower'][k]:.3f}\n"
        )

    boundary = summary.get("boundary", {})
    if boundary:
        text.append(
            f"boundary contact: max {boundary['max_contact']:.3e}, "
            f"{boundary['contaminated_graphs']} graph(s) past the "
            "contamination level\n"
        )
    for row in summary.get("mc_exit", []):
        mc = "all censored" if row["mc_mean"] is None else f"{row['mc_mean']:.4f}"
        text.append(
            f"sampled exit at R={row['radius']}: {mc} "
            f"(exact {row['exact_mean']:.4f}, {row['censored']} censored)\n"
        )

    (target / "summary.txt").write_text("".join(text))
    return target
