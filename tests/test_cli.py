import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import resistive_walk
from resistive_walk import cli, pipeline
from resistive_walk.cli import main
from resistive_walk.config import PRESET_NAMES, load_config, load_preset
from resistive_walk.generate import (
    ExpTailParams,
    LongRangeParams,
    fixture,
    generate_exp_tail,
    generate_long_range,
)
from resistive_walk.graph import dumps_edge_list, read_edge_list

# past the int64 range: 2**64 < BIG < 2**67
BIG = "99999999999999999999"

TINY_CONFIG = b"name = tiny\nmodel = fixture\nfixture_name = line\nfixture_size = 16\n" \
    b"ensemble = 1\nradius_grid = 2\n"


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


def test_generate_creates_the_output_directory(tmp_path):
    path = tmp_path / "new" / "dir" / "line.edges"
    assert main(["generate", "--model", "fixture", "--fixture", "line", "--size", "16",
                 "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == dumps_edge_list(fixture("line", 16))


def test_generate_to_stdout(capsys):
    assert main(["generate", "--model", "lrp", "--half-width", "8",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# marked=0 window=-8,8 truncated=1")


@pytest.mark.parametrize(
    "argv, direct",
    [(["--model", "lrp", "--half-width", "64", "--beta", "2.0", "--tail-exponent", "3.0",
       "--seed", "11"], lambda: generate_long_range(LongRangeParams(64, 2.0, 3.0, 11))),
     (["--model", "exp", "--half-width", "64", "--rate", "0.5", "--seed", "11"],
      lambda: generate_exp_tail(ExpTailParams(64, 0.5, 11))),
     (["--model", "fixture", "--fixture", "ladder", "--size", "5"],
      lambda: fixture("ladder", 5))],
    ids=["lrp", "exp", "fixture"],
)
def test_generate_prints_the_library_graph(capsys, argv, direct):
    assert main(["generate", *argv]) == 0
    assert capsys.readouterr().out == dumps_edge_list(direct())


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


@pytest.mark.parametrize(
    "flags",
    [["--volume-log-power", "nan"], ["--resistance-exponent", "inf"],
     ["--tolerance", "inf"], ["--tolerance", "0.5"]],
    ids=["volume-log-power-nan", "resistance-exponent-inf", "tolerance-inf", "tolerance-half"],
)
def test_jcheck_refuses_non_finite_growth_and_bad_tolerance(tmp_path, capsys, flags):
    path = tmp_path / "lrp.edges"
    assert main(["generate", "--model", "lrp", "--half-width", "256", "--out", str(path)]) == 0
    argv = ["jcheck", str(path), "--radius", "32", "--tolerance", "4", *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_walk_command(line_file, capsys):
    assert main(["walk", str(line_file), "--steps", "8", "--trajectories", "5",
                 "--seed", "1", "--radius", "2", "--metric", "line"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("trajectory,exit_time,censored")


def test_walk_refuses_a_ball_the_window_cuts(tmp_path, capsys):
    # the nearer window end lies 10 hops from 0, so graph-metric radii past 2 are cut
    path = tmp_path / "lrp22.edges"
    assert main(["generate", "--model", "lrp", "--half-width", "256", "--tail-exponent",
                 "2.2", "--seed", "3", "--out", str(path)]) == 0
    argv = ["walk", str(path), "--steps", "256", "--trajectories", "300", "--metric", "graph"]
    assert main([*argv, "--radius", "8"]) == 2
    captured = capsys.readouterr()
    assert "quarter of the graph-metric distance" in captured.err
    assert captured.out == ""
    assert main([*argv, "--radius", "2"]) == 0


def test_walk_rejects_odd_steps(line_file, capsys):
    assert main(["walk", str(line_file), "--steps", "7", "--trajectories", "2",
                 "--seed", "1", "--radius", "2"]) == 2
    assert "even" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["walk", "{graph}", "--steps", "100000000000000000000", "--radius", "2"],
     ["walk", "{graph}", "--steps", "4", "--trajectories", BIG, "--radius", "2"],
     ["walk", "{graph}", "--steps", "4", "--radius", BIG],
     ["heatkernel", "{graph}", "--steps", BIG],
     ["jcheck", "{graph}", "--radius", BIG, "--tolerance", "2"],
     ["generate", "--model", "lrp", "--half-width", BIG],
     ["generate", "--model", "fixture", "--fixture", "path", "--size", BIG]],
    ids=["walk-steps", "walk-trajectories", "walk-radius", "heatkernel-steps",
         "jcheck-radius", "generate-half-width", "generate-size"],
)
def test_count_and_size_flags_past_int64_exit_2(line_file, capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main([a.format(graph=line_file) for a in argv])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert "does not fit in a 64-bit integer" in captured.err
    assert captured.out == ""


# fits in int64, but no machine can allocate an array that long
HUGE = "4611686018427387904"


@pytest.mark.parametrize(
    "argv",
    [["heatkernel", "{graph}", "--steps", HUGE],
     ["walk", "{graph}", "--steps", "4", "--trajectories", HUGE, "--radius", "2"],
     ["generate", "--model", "lrp", "--half-width", HUGE],
     ["generate", "--model", "lrp", "--half-width", str(2**62 + 1)],
     ["generate", "--model", "exp", "--half-width", HUGE],
     ["generate", "--model", "exp", "--half-width", str(2**62 - 1)]],
    ids=["heatkernel-steps", "walk-trajectories", "generate-half-width",
         "generate-lrp-past-2^62", "generate-exp-2^62", "generate-exp-below-2^62"],
)
def test_sizes_too_large_to_allocate_exit_2(line_file, capsys, argv):
    assert main([a.format(graph=line_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert "cannot allocate the requested size" in captured.err
    assert captured.out == ""


def test_run_with_a_window_too_large_to_allocate_exits_2(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"name = x\nmodel = lrp\nhalf_width = {2**62 + 1}\n")
    assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "cannot allocate the requested size" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_closed_output_pipe_ends_without_a_traceback(line_file, capsys, monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["heatkernel", str(line_file), "--steps", "256"]) == 1
        monkeypatch.undo()
    assert capsys.readouterr().err == ""


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
     b"# marked=0 window=-100,100 truncated=1\n-2 -1 1.0\n-1 0 1.0\n0 1 1.0\n1 2 1.0\n",
     f"# marked=0 window=0,{BIG}\n0 {BIG} 1.0\n".encode()],
    ids=["truncated-yes", "truncated-2", "not-utf8", "window-not-label-range",
         "label-past-int64"],
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
     (["report", "."], {"summary.json": b'{"name": "x", "ensemble": 1, "config_hash": 5}\n'}),
     (["report", "."], {"summary.json":
                        b'{"name": "x", "ensemble": 1, "config_hash": "abc", "series": []}\n'}),
     (["report", "."], {"summary.json":
                        b'{"name": "x", "ensemble": 1, "config_hash": "abc", '
                        b'"series": {"radius_grid": [1], "exit": {}}}\n'}),
     (["report", "."], {"summary.json":
                        b'{"name": "x", "ensemble": 1, "config_hash": "abc", "tightness": '
                        b'{"thetas": [1], "exit": [1' + b"0" * 400 + b'], "kernel": [1], '
                        b'"displacement_upper": [1], "displacement_lower": [1], "theta_star": 1}}\n'}),
     (["report", "."], {"summary.json":
                        b'{"name": "x", "ensemble": 1, "config_hash": "abc", "series": '
                        b'{"radius_grid": [1, 2], "exit": {"mean": [1], "ci_lo": [1], "ci_hi": [1]}, '
                        b'"exit_ratio": [1], "resistance_volume": {"mean": [1], "ci_lo": [1], '
                        b'"ci_hi": [1]}, "resistance_volume_ratio": [1]}}\n'}),
     (["report", "."], {"summary.json": b"[" * 100_000 + b"]" * 100_000}),
     (["run", "."], {}),
     (["run", "bad.cfg"], {"bad.cfg": b"name = x\nmodel = lrp\n# \xff\n"}),
     (["report", ".", "--outdir", "afile"],
      {"summary.json": b'{"name": "x", "ensemble": 1, "config_hash": "abc"}\n', "afile": b""}),
     (["run", "tiny.cfg", "--outdir", "afile"], {"tiny.cfg": TINY_CONFIG, "afile": b""}),
     (["run", "tiny.cfg", "--outdir", "afile/out"], {"tiny.cfg": TINY_CONFIG, "afile": b""}),
     (["run", "big.cfg", "--outdir", "out"],
      {"big.cfg": f"name = x\nmodel = lrp\nhalf_width = {BIG}\n".encode()}),
     (["run", "tiny.cfg"], {"tiny.cfg": TINY_CONFIG}),
     (["run", "old.cfg", "--outdir", "out"], {"old.cfg": TINY_CONFIG + b"outdir = x\n"}),
     (["report", "z" * 300], {}),
     (["run", "z" * 300 + ".cfg", "--outdir", "out"], {}),
     (["run", "tiny.cfg", "--outdir", "z" * 300], {"tiny.cfg": TINY_CONFIG}),
     (["run", "tiny.cfg", "--outdir", "."], {"tiny.cfg": TINY_CONFIG})],
    ids=["report-not-json", "report-empty-object", "report-hash-not-string",
         "report-series-not-object", "report-series-lacks-field", "report-value-overflows",
         "report-columns-differ-in-length", "report-nested-too-deep",
         "run-directory", "run-config-not-utf8", "report-outdir-is-a-file",
         "run-outdir-is-a-file", "run-outdir-under-a-file", "run-half-width-past-int64",
         "run-without-outdir", "run-config-sets-outdir", "report-rundir-name-too-long",
         "run-config-name-too-long", "run-outdir-name-too-long", "run-outdir-not-empty"],
)
def test_unreadable_run_input_exits_2(tmp_path, capsys, monkeypatch, argv, files):
    def no_member(config, index):
        raise AssertionError("a member ran")

    monkeypatch.setattr(pipeline, "member_observables", no_member)
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    command, *paths = argv
    args = [a if a.startswith("--") else str(tmp_path / a) for a in paths]
    assert main([command, *args]) == 2
    assert "error:" in capsys.readouterr().err
    # nothing created, nothing overwritten
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


@pytest.mark.parametrize("command", ["run", "generate", "report"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    (tmp_path / "tiny.cfg").write_bytes(TINY_CONFIG)
    assert main(["run", str(tmp_path / "tiny.cfg"), "--outdir", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    # a file name past the system's limit of 255 bytes
    out = str(tmp_path / ("x" * 300))
    argv = {"run": ["run", str(tmp_path / "tiny.cfg"), "--outdir", out],
            "generate": ["generate", "--model", "fixture", "--fixture", "line", "--size", "16",
                         "--out", out],
            "report": ["report", str(tmp_path / "run"), "--outdir", out]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"cannot write {out}" in captured.err
    assert captured.out == ""


def test_non_ascii_config_runs_under_an_ascii_locale(tmp_path):
    cfg = tmp_path / "cafe.cfg"
    cfg.write_bytes(TINY_CONFIG.replace(b"name = tiny", "name = café".encode()))
    source = str(Path(resistive_walk.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "resistive_walk.cli", "run", str(cfg),
         "--outdir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert load_config(tmp_path / "out" / "config.cfg").name == "café"


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


def test_run_outputs_do_not_depend_on_the_directory(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_bytes(TINY_CONFIG)
    # "a" is created by the run, "b" exists and is empty
    (tmp_path / "b").mkdir()
    for name in ("a", "b"):
        assert main(["run", str(cfg), "--outdir", str(tmp_path / name)]) == 0
    for name in ("summary.json", "config.cfg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    record = pipeline.run(load_config(cfg), tmp_path / "c")
    assert json.loads((tmp_path / "a" / "summary.json").read_text())["config_hash"] == record.hash


def test_bad_label_list(line_file, capsys):
    assert main(["resistance", str(line_file), "--source", "a",
                 "--target", "1"]) == 2


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_run_loads_a_preset_by_name(tmp_path, monkeypatch, name):
    seen = []

    def fake_run(config, outdir):
        seen.append(config)
        return SimpleNamespace(path=outdir, wallclock_seconds=0.0, workers=1)

    monkeypatch.chdir(tmp_path)  # no file here shares the preset's name
    monkeypatch.setattr(cli, "run_pipeline", fake_run)
    assert main(["run", name, "--outdir", "out"]) == 0
    assert seen == [load_preset(name)]
