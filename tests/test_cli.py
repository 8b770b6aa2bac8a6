import json

import pytest

from resistive_walk.cli import main
from resistive_walk.graph import read_edge_list


@pytest.fixture()
def line_file(tmp_path):
    path = tmp_path / "line.edges"
    assert main(["generate", "--model", "fixture", "--fixture", "line",
                 "--size", "16", "--out", str(path)]) == 0
    return path


def test_generate_writes_readable_graph(line_file):
    g = read_edge_list(line_file)
    assert g.n_vertices == 33
    assert g.truncated


def test_generate_to_stdout(capsys):
    assert main(["generate", "--model", "lrp", "--half-width", "8",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# marked=0 window=-8,8 truncated=1")


def test_resistance_command(line_file, capsys):
    assert main(["resistance", str(line_file), "--source", "0",
                 "--target=-4,4"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.0, rel=1e-9)


def test_resistance_command_exits_3_on_a_bad_solve(line_file, capsys, wrong_solves):
    assert main(["resistance", str(line_file), "--source", "0",
                 "--target=-4,4"]) == 3
    assert "solver error" in capsys.readouterr().err


def test_profile_command(line_file, capsys):
    assert main(["profile", str(line_file), "--radii", "2,4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "R,complement_resistance,max_pointwise_ratio"
    radius, reff, ratio = lines[1].split(",")
    assert (int(radius), float(reff)) == (2, pytest.approx(1.0))
    assert float(ratio) == pytest.approx(1.0)


def test_profile_sorts_radii_and_keeps_duplicates(tmp_path, capsys):
    path = tmp_path / "lrp.edges"
    assert main(["generate", "--model", "lrp", "--half-width", "64",
                 "--seed", "3", "--out", str(path)]) == 0
    assert main(["profile", str(path), "--radii", "2,8"]) == 0
    header, two, eight = capsys.readouterr().out.splitlines()
    assert (two.split(",")[0], eight.split(",")[0]) == ("2", "8")
    assert main(["profile", str(path), "--radii", "8,2,8"]) == 0
    assert capsys.readouterr().out.splitlines() == [header, two, eight, eight]


def test_heatkernel_command(line_file, capsys):
    assert main(["heatkernel", str(line_file), "--steps", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,p2n,f_n,boundary_mass"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.5)
    second = lines[2].split(",")
    assert float(second[1]) == pytest.approx(0.25)


def test_jcheck_command(line_file, capsys):
    assert main(["jcheck", str(line_file), "--radius", "4",
                 "--tolerance", "4"]) == 0
    out = capsys.readouterr().out
    assert "member=true" in out
    assert "volume=14.0" in out


def test_walk_command(line_file, capsys):
    assert main(["walk", str(line_file), "--steps", "8", "--trajectories", "5",
                 "--seed", "1", "--radius", "2", "--metric", "line"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("trajectory,exit_time,censored")


def test_walk_rejects_odd_steps(line_file, capsys):
    assert main(["walk", str(line_file), "--steps", "7", "--trajectories", "2",
                 "--seed", "1", "--radius", "2"]) == 2
    assert "even" in capsys.readouterr().err


def test_missing_graph_file_exits_2(tmp_path, capsys):
    assert main(["resistance", str(tmp_path / "gone.edges"),
                 "--source", "0", "--target", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [b"# marked=0 window=0,1 truncated=yes\n0 1 1.0\n",
     b"# marked=0 window=0,1 truncated=2\n0 1 1.0\n",
     b"# marked=0 window=0,1\n0 1 \xff\n",
     # the path -2..2 under a header that states a wider window
     b"# marked=0 window=-100,100 truncated=1\n-2 -1 1.0\n-1 0 1.0\n0 1 1.0\n1 2 1.0\n"],
    ids=["truncated-yes", "truncated-2", "not-utf8", "window-not-label-range"],
)
def test_malformed_graph_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "bad.edges"
    path.write_bytes(content)
    assert main(["resistance", str(path), "--source", "0", "--target", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["heatkernel", str(path), "--steps", "4"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, files",
    [(["report", "."], {"summary.json": b"{not json"}),
     (["report", "."], {"summary.json": b"{}\n"}),
     (["run", "."], {}),
     (["run", "bad.cfg"], {"bad.cfg": b"name = x\nmodel = lrp\n# \xff\n"})],
    ids=["report-not-json", "report-empty-object", "run-directory", "run-config-not-utf8"],
)
def test_unreadable_run_input_exits_2(tmp_path, capsys, argv, files):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    command, target = argv
    assert main([command, str(tmp_path / target)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_exits_2(capsys):
    assert main(["run", "no-such-config.cfg"]) == 2
    assert "no config file or preset" in capsys.readouterr().err


def test_run_and_report_round_trip(tmp_path, mini_config_text, capsys):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(mini_config_text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--outdir", str(out)]) == 0
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["name"] == "mini"
    assert main(["report", str(out)]) == 0
    assert (out / "report" / "summary.txt").exists()


def test_bad_label_list(line_file, capsys):
    assert main(["resistance", str(line_file), "--source", "a",
                 "--target", "1"]) == 2
