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


def test_report_needs_summary(tmp_path):
    with pytest.raises(InvalidArgumentError, match="summary.json"):
        report(tmp_path)


def test_readme_lists_every_series_file():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name, header, *_ in SERIES_FILES:
        assert f"| `{name}` | `{header}` |" in readme
