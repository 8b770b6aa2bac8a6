import json
from pathlib import Path

import pytest

from resistive_walk.config import parse_config
from resistive_walk.errors import InvalidArgumentError
from resistive_walk.pipeline import run
from resistive_walk.report import SERIES_FILES, report


@pytest.fixture(scope="module")
def run_dir(mini_config_text, tmp_path_factory):
    config = parse_config(mini_config_text)
    return run(config, tmp_path_factory.mktemp("report") / "mini").path


def test_report_writes_tables_and_digest(run_dir):
    target = report(run_dir)
    names = {p.name for p in target.iterdir()}
    assert "summary.txt" in names
    assert {"exit.dat", "kernel.dat", "displacement.dat", "range.dat",
            "tightness.dat"} <= names
    assert any(name.startswith("goodscale_R") for name in names)


def test_dat_files_are_numeric_columns(run_dir):
    target = report(run_dir)
    for path in target.glob("*.dat"):
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ")
        width = len(lines[1].split())
        for line in lines[1:]:
            values = [float(tok) for tok in line.split()]
            assert len(values) == width


def test_digest_mentions_theta_star(run_dir):
    target = report(run_dir)
    text = (target / "summary.txt").read_text()
    assert "theta*=4" in text
    assert "boundary contact" in text


def test_digest_prints_a_computed_fit(tmp_path):
    # E[exit] from the line ball of radius R is R^2, and 8 radii are enough to fit
    config = parse_config("name = fit\nmodel = fixture\nfixture_name = line\n"
                          "fixture_size = 64\nradius_grid = 1,2,3,4,5,6,7,8\n")
    text = (report(run(config, tmp_path / "fit").path) / "summary.txt").read_text()
    assert ("exit-time exponent: 2.0000 +- 0.0000 (window [1, 8], 8 points; "
            "all points 2.0000 +- 0.0000)\n") in text


def test_digest_notes_an_exit_fit_that_was_not_computed(tmp_path):
    stats = {"mean": [1.0], "ci_lo": [1.0], "ci_hi": [1.0]}
    summary = {"name": "x", "ensemble": 1, "config_hash": "abc",
               "series": {"radius_grid": [1], "exit": stats, "exit_ratio": [1.0],
                          "resistance_volume": stats, "resistance_volume_ratio": [1.0]}}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    text = (report(tmp_path) / "summary.txt").read_text()
    assert "exit-time exponent: not computed\n" in text


# on the line every ball is a good scale from the first tolerance on, so no
# failure is left to fit a decay to
FLOORED_CONFIG = ("name = floored\nmodel = fixture\nfixture_name = line\nfixture_size = 256\n"
                  "goodscale_radii = 4,8\ntolerance_grid = 8,16\n")


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_an_unresolved_decay_rate_is_written_as_strict_json(tmp_path):
    path = run(parse_config(FLOORED_CONFIG), tmp_path / "floored").path
    for name in ("summary.json", "record.json"):
        json.loads((path / name).read_text(), parse_constant=_refuse_constant)
    summary = json.loads((path / "summary.json").read_text())
    unresolved = {"rate": None, "floored": True}
    assert summary["goodscale"]["decay"] == {"4": unresolved, "8": unresolved}
    text = (report(path) / "summary.txt").read_text()
    for R in (4, 8):
        assert f"good-scale failure decay at R={R}: rate inf (floored tail)\n" in text


def test_report_needs_summary(tmp_path):
    with pytest.raises(InvalidArgumentError, match="summary.json"):
        report(tmp_path)


def test_readme_lists_every_series_file():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name, header, *_ in SERIES_FILES:
        assert f"| `{name}` | `{header}` |" in readme
