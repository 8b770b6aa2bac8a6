"""Tests of the benchmark's own correctness gate and tracing, on a small window.

Run with: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import csv
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import workloads  # noqa: E402

workloads.use_checkout_source()

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from resistive_walk import pipeline  # noqa: E402
from resistive_walk.config import load_preset, with_overrides  # noqa: E402

SMALL = with_overrides(
    load_preset("lrp-s3.5"),
    half_width=1024,
    ensemble=2,
    master_seed=5,
    radius_grid=(4, 8, 16, 32, 64, 128, 256),
    time_grid=(8, 16, 32, 64, 128, 256),
    goodscale_radii=(8, 16, 32, 64),
    n_trajectories=32,
)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("small")
    pipeline.run(SMALL, out, workers=1)
    return out


def _copy(run_dir: Path, tmp_path: Path) -> Path:
    dest = tmp_path / "copy"
    shutil.copytree(run_dir, dest)
    return dest


def _edit(obs_dir: Path, name: str, member: int, column: str, change) -> None:
    """Apply `change` to `column` of the first row of `member` in one output file."""
    path = obs_dir / name
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    col = header.index(column)
    row = next(r for r in rows if int(r[0]) == member)
    row[col] = change(row[col])
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(",".join(r) for r in [header, *rows]) + "\n")


def _scaled(factor: float):
    return lambda cell: repr(float(cell) * factor)


def _gate(run_dir: Path, reference, monkeypatch) -> tuple[int, int, list[str]]:
    monkeypatch.setattr(gate, "load_reference", lambda name, seed: reference)
    bench = SimpleNamespace(
        name="small", config=SMALL, members=SMALL.ensemble, pipeline=pipeline,
        calls=[{"error": None, "outdir": run_dir}],
    )
    return run.gate_calls(bench)


@pytest.mark.parametrize(
    "name,column",
    [(name, col) for name, cols in gate.LINEAR.items() for col in cols if col != "boundary_mass"],
)
def test_relative_perturbation_of_1e8_fails_the_member(small_run, tmp_path, monkeypatch, name, column):
    reference = gate.fingerprint(small_run / "observables")
    assert _gate(small_run, reference, monkeypatch)[:2] == (2, 0)

    copy = _copy(small_run, tmp_path)
    _edit(copy / "observables", name, 1, column, _scaled(1 + 1e-8))
    attempted, failed, problems = _gate(copy, reference, monkeypatch)
    assert (attempted, failed) == (2, 1)
    assert all("member 1" in p for p in problems)


def test_perturbation_inside_the_tolerance_passes(small_run, tmp_path, monkeypatch):
    reference = gate.fingerprint(small_run / "observables")
    copy = _copy(small_run, tmp_path)
    _edit(copy / "observables", "kernel.csv", 0, "p2n", _scaled(1 + 1e-12))
    assert _gate(copy, reference, monkeypatch)[:2] == (2, 0)


def test_boundary_mass_is_compared_on_the_probability_scale(small_run, tmp_path, monkeypatch):
    reference = gate.fingerprint(small_run / "observables")
    copy = _copy(small_run, tmp_path)
    _edit(copy / "observables", "kernel.csv", 0, "boundary_mass", lambda c: repr(float(c) + 1e-8))
    assert _gate(copy, reference, monkeypatch)[:2] == (2, 1)


@pytest.mark.parametrize(
    "name,column",
    [("displacements.csv", "distance"), ("walk_exit.csv", "censored"),
     ("walk.csv", "mean_displacement"), ("pointwise.csv", "witness"),
     ("goodscale.csv", "member")],
)
def test_exact_columns_must_match(small_run, tmp_path, monkeypatch, name, column):
    reference = gate.fingerprint(small_run / "observables")
    copy = _copy(small_run, tmp_path)
    _edit(copy / "observables", name, 0, column, lambda c: {"true": "false", "false": "true"}.get(c, c + "1"))
    attempted, failed, _ = _gate(copy, reference, monkeypatch)
    assert (attempted, failed) == (2, 1)


def test_spot_check_without_reference(small_run, tmp_path, monkeypatch):
    assert _gate(small_run, None, monkeypatch)[:2] == (2, 0)
    copy = _copy(small_run, tmp_path)
    _edit(copy / "observables", "resistance.csv", 1, "complement_resistance", _scaled(1 + 1e-6))
    _edit(copy / "observables", "pointwise.csv", 0, "max_ratio", _scaled(1 + 1e-6))
    attempted, failed, problems = _gate(copy, None, monkeypatch)
    assert (attempted, failed) == (2, 2)
    assert any("R_eff(0, B_4^c)" in p for p in problems)
    assert any("pointwise" in p for p in problems)


def test_traced_runs_repeat_counts_and_outputs(small_run, tmp_path):
    originals = {name: getattr(pipeline, name) for name in tracing.WRAPPED}
    tracer = tracing.Tracer()
    for r in range(2):
        tracer.run = r
        with tracer.installed(pipeline), tracer.span("pipeline.run"):
            pipeline.run(SMALL, tmp_path / f"traced{r}", workers=1)
        assert all(getattr(pipeline, n) is fn for n, fn in originals.items())

    first, second = (tracing.layer_metrics(tracer.spans, r, SMALL.ensemble) for r in range(2))
    assert set(first) == set(tracing.BUSY) | set(tracing.SELF) | set(tracing.COUNTS)
    for name in tracing.COUNTS:
        assert first[name] == second[name] > 0, name
    horizon = max(SMALL.time_grid) + 1
    nnz = sum(pipeline.build_graph(SMALL, i).adjacency().nnz for i in range(SMALL.ensemble))
    assert first["walk.kernel.steps"] == SMALL.ensemble * horizon
    assert first["walk.kernel.matvec_nnz"] == 2 * horizon * nnz
    assert tracing.member_balance(tracer.spans) == []

    untraced = gate.fingerprint(small_run / "observables")
    traced = gate.fingerprint(tmp_path / "traced0" / "observables")
    assert all(gate.compare(traced[m], untraced[m]) == [] for m in untraced)


def test_member_balance_flags_overlapping_layers():
    spans = [
        tracing.Span("pipeline.member", 0.0, 10.0, None, 0),
        tracing.Span("walk.kernel", 1.0, 5.0, 0, 0),
        tracing.Span("walk.mc", 4.0, 6.0, 0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)
    assert tracing.member_balance(spans) != []
    spans[2] = tracing.Span("walk.mc", 5.0, 6.0, 0, 0)
    assert tracing.member_balance(spans) == []
