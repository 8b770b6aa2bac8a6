"""Turn a finished run directory into plot-ready tables and a text digest.

`report` builds the text of every file from summary.json before it creates
the output directory, so a malformed summary leaves nothing behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import InvalidArgumentError
from .graph import write_files


# top-level summary fields that `report` reads, with their JSON types
SUMMARY_FIELDS = {
    "name": str, "ensemble": int, "config_hash": str, "series": dict,
    "goodscale": dict, "tightness": dict, "boundary": dict, "mc_exit": list,
}

# (file, header, abscissa grid key, series key, ratio key or None, digest
# fit line or None): one row per file, written when its grid is non-empty,
# from summary["series"]; the fit lines follow the rows' order
SERIES_FILES = (
    ("exit.dat", "R mean_exit ci_lo ci_hi ratio", "radius_grid", "exit", "exit_ratio",
     ("exit-time exponent", "fits_exit")),
    ("resistance_volume.dat", "R mean ci_lo ci_hi ratio",
     "radius_grid", "resistance_volume", "resistance_volume_ratio", None),
    ("kernel.dat", "n p2n ci_lo ci_hi ratio", "m_grid", "kernel", "kernel_ratio",
     ("spectral dimension", "fits_spectral")),
    ("range.dat", "n mean ci_lo ci_hi", "time_grid", "range_weight", None,
     ("range exponent", "fits_range")),
    ("displacement.dat", "n mean ci_lo ci_hi ratio", "time_grid", "displacement",
     "displacement_ratio", ("displacement exponent", "fits_displacement")),
)


def _dat(header: str, columns) -> str:
    rows = (" ".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns, strict=True))
    return f"# {header}\n" + "".join(rows)


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


def _report_files(summary: dict) -> dict[str, str]:
    """The text of every report file, by file name, summary.txt last."""
    files: dict[str, str] = {}
    series = summary.get("series", {})
    text = [f"run {summary['name']} ({summary['ensemble']} graphs, "
            f"hash {summary['config_hash'][:12]})\n"]

    for name, header, grid, key, ratio, fit in SERIES_FILES:
        if not series.get(grid):
            continue
        stats = series[key]
        columns = [series[grid], stats["mean"], stats["ci_lo"], stats["ci_hi"]]
        if ratio:
            columns.append(series[ratio])
        files[name] = _dat(header, columns)
        if fit:
            label, fit_key = fit
            text.append(_fit_line(label, summary.get(fit_key)))
        if key == "exit":
            live = [v for v in series["exit_ratio"] if v > 0]
            if live:
                text.append(f"exit/prediction spread (all R): {max(live) / min(live):.3f}\n")

    goodscale = summary.get("goodscale")
    if goodscale:
        lams = goodscale["tolerances"]
        for key, fractions in sorted(
            goodscale["failure_fractions"].items(), key=lambda kv: int(kv[0])
        ):
            files[f"goodscale_R{key}.dat"] = _dat("lambda failure_fraction", (lams, fractions))
            decay = goodscale["decay"][key]
            floored = " (floored tail)" if decay["floored"] else ""
            text.append(
                f"good-scale failure decay at R={key}: "
                f"rate {decay['rate']:.3f}{floored}\n"
            )

    tightness = summary.get("tightness")
    if tightness:
        files["tightness.dat"] = _dat(
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

    files["summary.txt"] = "".join(text)
    return files


def report(run_dir: str | os.PathLike, outdir: str | os.PathLike | None = None) -> Path:
    """Write .dat tables and summary.txt for the run stored at `run_dir`.

    A missing or malformed summary.json raises InvalidArgumentError before
    anything is written; an output path that cannot be written raises it too."""
    run_dir = Path(run_dir)
    summary_path = run_dir / "summary.json"
    if not os.path.exists(summary_path):
        raise InvalidArgumentError(f"no summary.json under {run_dir}")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidArgumentError(f"cannot read {summary_path}: {exc}") from exc
    if not (isinstance(summary, dict) and {"name", "ensemble", "config_hash"} <= summary.keys()):
        raise InvalidArgumentError(f"{summary_path} lacks name, ensemble or config_hash")
    wrong = [k for k, t in SUMMARY_FIELDS.items() if k in summary and not isinstance(summary[k], t)]
    if wrong:
        raise InvalidArgumentError(f"{summary_path}: wrong type for {', '.join(wrong)}")
    # JSON holds only dicts, lists, strings, numbers, booleans and null, so
    # these are every way a field of the wrong shape can fail the read
    try:
        files = _report_files(summary)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise InvalidArgumentError(
            f"{summary_path}: malformed field ({type(exc).__name__}: {exc})"
        ) from exc

    target = Path(outdir) if outdir is not None else run_dir / "report"
    write_files({target / name: text for name, text in files.items()})
    return target
