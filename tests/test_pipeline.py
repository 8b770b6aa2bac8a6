import json
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from resistive_walk import pipeline
from resistive_walk.config import parse_config, with_overrides
from resistive_walk.errors import ConfigError, InvalidArgumentError, TruncationError
from resistive_walk.generate import (
    ExpTailParams,
    LongRangeParams,
    fixture,
    generate_exp_tail,
    generate_long_range,
    mix_seed,
)
from resistive_walk.graph import dumps_edge_list, read_edge_list
from resistive_walk.pipeline import (
    WORKERS_ENV,
    ball_radii,
    build_graph,
    graph_seed,
    growth_functions,
    member_observables,
    run,
    scale_observables,
    walk_seed,
)
from resistive_walk.resistance import effective_resistance
from resistive_walk.scaling import evaluate_good_scale
from resistive_walk.walk import mean_exit_time_exact, simulate


@pytest.fixture(scope="module")
def mini_config(mini_config_text):
    return parse_config(mini_config_text)


@pytest.fixture(scope="module")
def mini_run(mini_config, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("runs") / "mini"
    record = run(mini_config, outdir)
    return record


def test_seed_split_keeps_streams_apart():
    master = 99
    seeds = {graph_seed(master, i) for i in range(8)}
    seeds |= {walk_seed(master, i) for i in range(8)}
    assert len(seeds) == 16
    assert graph_seed(master, 0) == mix_seed(master, 0)
    assert walk_seed(master, 0) == mix_seed(master, 1)


def test_build_graph_is_deterministic(mini_config):
    a = build_graph(mini_config, 2)
    b = build_graph(mini_config, 2)
    assert list(a.bonds()) == list(b.bonds())
    c = build_graph(mini_config, 3)
    assert list(a.bonds()) != list(c.bonds())


@pytest.mark.parametrize(
    "model, direct",
    [("model = lrp\nhalf_width = 64\nbeta = 2.0\ntail_exponent = 3.0\n",
      lambda seed: generate_long_range(LongRangeParams(64, 2.0, 3.0, seed))),
     ("model = exp\nhalf_width = 64\nrate = 0.5\n",
      lambda seed: generate_exp_tail(ExpTailParams(64, 0.5, seed))),
     ("model = fixture\nfixture_name = line\nfixture_size = 64\n",
      lambda seed: fixture("line", 64))],
    ids=["lrp", "exp", "fixture-line"],
)
def test_build_graph_is_the_generator_at_the_graph_seed(model, direct):
    config = parse_config(f"name = x\nmaster_seed = 7\n{model}")
    for index in (0, 3):
        expected = dumps_edge_list(direct(graph_seed(7, index)))
        assert dumps_edge_list(build_graph(config, index)) == expected


def test_balls_that_cover_a_fixture_are_refused_by_every_caller():
    config = parse_config("name = x\nmodel = fixture\nfixture_name = path\nfixture_size = 4\n"
                          "metric = graph\nradius_grid = 8\n")
    g = build_graph(config, 0)
    for call in (lambda: member_observables(config, 0),
                 lambda: scale_observables(g, [8], metric="graph"),
                 lambda: mean_exit_time_exact(g, g.marked, 8, metric="graph")):
        with pytest.raises(InvalidArgumentError, match="ball of radius 8 covers the whole graph"):
            call()


def test_graph_metric_balls_the_window_cuts_are_refused_by_every_caller():
    config = parse_config("name = x\nmodel = lrp\nhalf_width = 128\nbeta = 1.0\n"
                          "tail_exponent = 2.2\nmetric = graph\n")
    g = build_graph(config, 0)
    dist = g.distances_from(g.marked, "graph")
    reach = int(min(dist[0], dist[-1]))
    inside, cut = reach // 4, reach // 4 + 1
    # long bonds bring a window end so close in hops that the line rule would allow `cut`
    assert 1 <= inside and cut <= g.half_width() / 4
    growth = growth_functions(config)
    calls = (lambda R: g.check_ball(g.marked, R, "graph"),
             lambda R: scale_observables(g, [R], metric="graph"),
             lambda R: pipeline.check_good_scale(g, R, 2.0, *growth, metric="graph"),
             lambda R: mean_exit_time_exact(g, g.marked, R, metric="graph"),
             lambda R: member_observables(with_overrides(config, radius_grid=(R,)), 0))
    message = f"quarter of the graph-metric distance from 0 to the nearer window end, {reach}"
    for call in calls:
        call(inside)
        with pytest.raises(TruncationError, match=message):
            call(cut)


def test_member_observables_are_reproducible(mini_config):
    a = member_observables(mini_config, 1)
    b = member_observables(mini_config, 1)
    assert a["volumes"].tobytes() == b["volumes"].tobytes()
    assert a["exit_exact"].tobytes() == b["exit_exact"].tobytes()
    assert np.array_equal(a["disp_matrix"], b["disp_matrix"])


def test_member_computes_the_weighted_degree_once(mini_config, monkeypatch):
    graphs, row_sums = [], []
    real_build, real_sum = pipeline.build_graph, csr_matrix.sum

    def build(config, index):
        graphs.append(real_build(config, index))
        return graphs[-1]

    def spy_sum(self, *args, **kwargs):
        row_sums.append(self)
        return real_sum(self, *args, **kwargs)

    monkeypatch.setattr(pipeline, "build_graph", build)
    monkeypatch.setattr(csr_matrix, "sum", spy_sum)
    member_observables(mini_config, 0)
    (g,) = graphs
    # complement and exit solves, exit-time reads, pointwise factor, kernel, walk
    assert sum(m is g.adjacency() for m in row_sums) == 1
    assert g.measure.tobytes() == np.asarray(real_sum(g.adjacency(), axis=1)).ravel().tobytes()
    with pytest.raises(ValueError, match="read-only"):
        g.measure[0] = 1.0


def test_member_volumes_match_graph(mini_config):
    res = member_observables(mini_config, 0)
    g = build_graph(mini_config, 0)
    assert len(res["volumes"]) == len(ball_radii(mini_config))
    for radius, volume in zip(ball_radii(mini_config), res["volumes"]):
        assert volume == pytest.approx(g.volume(0, radius, metric="line"))


def test_member_complement_matches_direct_solve(mini_config):
    res = member_observables(mini_config, 0)
    g = build_graph(mini_config, 0)
    dist = g.distances_from(0, metric="line")
    assert len(res["complement"]) == len(ball_radii(mini_config))
    for radius, reff in zip(ball_radii(mini_config), res["complement"]):
        outside = g.labels[dist >= radius].tolist()
        assert reff == pytest.approx(
            effective_resistance(g, [0], outside), rel=1e-9
        )


def test_scale_observables_match_member_observables(mini_config):
    # the library's ball routine and the ensemble member agree bit for bit
    res = member_observables(mini_config, 0)
    g = build_graph(mini_config, 0)
    volume_growth, resistance_growth = growth_functions(mini_config)
    rows = scale_observables(
        g, mini_config.goodscale_radii, mini_config.metric, resistance_growth
    )
    assert [row.radius for row in rows] == list(mini_config.goodscale_radii)
    assert len(res["pointwise"]) == len(rows)
    assert res["goodscale"].shape == (len(rows), len(mini_config.tolerance_grid), 3)
    for i, row in enumerate(rows):
        k = ball_radii(mini_config).index(row.radius)
        # float() keeps every bit; it only drops the numpy scalar type from repr
        assert repr((float(row.volume), float(row.complement_resistance),
                     row.max_pointwise_ratio, row.witness)) == repr(
            (float(res["volumes"][k]), float(res["complement"][k]), *res["pointwise"][i])
        )
        reports = [
            evaluate_good_scale(row, lam, volume_growth, resistance_growth)
            for lam in mini_config.tolerance_grid
        ]
        assert res["goodscale"][i].tolist() == [
            [rep.volume_ok, rep.resistance_ok, rep.pointwise_ok] for rep in reports
        ]


def test_ball_solves_go_through_the_pipeline_names(mini_config, monkeypatch):
    # every complement solve and pointwise factor is a call of these two names on
    # pipeline, so that a wrapper set there sees them all
    calls = {"complement": 0, "factor": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "effective_resistance",
                        counted("complement", pipeline.effective_resistance))
    monkeypatch.setattr(pipeline, "OriginResistanceCache",
                        counted("factor", pipeline.OriginResistanceCache))
    member_observables(mini_config, 0)
    n_balls = len(ball_radii(mini_config))
    assert calls == {"complement": n_balls, "factor": 1}
    g = build_graph(mini_config, 0)
    scale_observables(g, [8, 2, 4, 4])
    assert calls == {"complement": n_balls + 4, "factor": 2}
    pipeline.check_good_scale(g, 4, 2.0, *growth_functions(mini_config))
    assert calls == {"complement": n_balls + 5, "factor": 3}
    # a radius-1 ball holds no target, so nothing is factored
    scale_observables(g, [1])
    pipeline.check_good_scale(g, 1, 2.0, *growth_functions(mini_config))
    member_observables(with_overrides(mini_config, goodscale_radii=(1,), radius_grid=(),
                                      time_grid=(), mc_exit_radii=()), 0)
    assert calls == {"complement": n_balls + 8, "factor": 3}


def test_run_writes_expected_files(mini_run):
    names = {p.name for p in mini_run.path.iterdir()}
    assert {"config.cfg", "summary.json", "record.json", "observables"} <= names
    observables = {p.name for p in (mini_run.path / "observables").iterdir()}
    assert observables == {
        "volumes.csv", "resistance.csv", "pointwise.csv", "exit_exact.csv",
        "kernel.csv", "walk.csv", "walk_exit.csv", "displacements.csv",
        "goodscale.csv",
    }


def test_run_without_radius_grid_skips_the_tightness_table(tmp_path):
    config = parse_config("name = x\nmodel = lrp\nhalf_width = 128\ntime_grid = 8,16\n"
                          "n_trajectories = 8\n")
    record = run(config, tmp_path / "no-radii")
    assert "tightness" not in record.summary
    assert len(record.summary["series"]["kernel"]["mean"]) == 2


def test_a_run_whose_summary_fails_writes_nothing(mini_config, tmp_path, monkeypatch):
    def fail(config, results):
        raise InvalidArgumentError("no summary")

    monkeypatch.setattr(pipeline, "build_summary", fail)
    with pytest.raises(InvalidArgumentError, match="no summary"):
        run(with_overrides(mini_config, ensemble=1), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_walk_exit_mean_is_empty_where_every_trajectory_is_censored(tmp_path):
    # 8 steps cannot reach distance 16, so every trajectory is censored there
    config = parse_config("name = x\nmodel = fixture\nfixture_name = line\nfixture_size = 64\n"
                          "radius_grid = 2,16\ntime_grid = 8\nmc_exit_radii = 2,16\n"
                          "n_trajectories = 8\n")
    record = run(config, tmp_path / "censored")
    stats = simulate(build_graph(config, 0), 0, 8, 8, walk_seed(config.master_seed, 0),
                     radii=(2, 16), time_grid=(8,), metric="line")
    mean, censored = stats.mean_exit_time(2), int(stats.censored[:, 0].sum())
    assert (record.path / "observables" / "walk_exit.csv").read_text() == (
        f"graph,R,mc_mean_exit,censored,trajectories\n0,2,{mean!r},{censored},8\n0,16,,8,8\n"
    )
    assert [row["mc_mean"] for row in record.summary["mc_exit"]] == [mean, None]


def test_run_without_goodscale_radii_writes_header_only_files(mini_config, tmp_path):
    config = with_overrides(mini_config, goodscale_radii=(), ensemble=2)
    record = run(config, tmp_path / "no-goodscale")
    observables = record.path / "observables"
    assert (observables / "pointwise.csv").read_text() == "graph,R,max_ratio,witness\n"
    assert (observables / "goodscale.csv").read_text() == (
        "graph,R,lambda,member,volume_ok,resistance_ok,pointwise_ok\n"
    )
    assert "goodscale" not in record.summary
    lines = (observables / "volumes.csv").read_text().splitlines()
    assert len(lines) == 1 + config.ensemble * len(config.radius_grid)


def test_csv_row_counts(mini_run, mini_config):
    ensemble = mini_config.ensemble
    lines = (mini_run.path / "observables" / "exit_exact.csv").read_text().splitlines()
    assert len(lines) == 1 + ensemble * len(mini_config.radius_grid)
    lines = (mini_run.path / "observables" / "displacements.csv").read_text().splitlines()
    expected = ensemble * mini_config.n_trajectories * len(mini_config.time_grid)
    assert len(lines) == 1 + expected


def test_summary_failure_fractions_are_monotone(mini_run):
    summary = mini_run.summary
    for fractions in summary["goodscale"]["failure_fractions"].values():
        assert fractions == sorted(fractions, reverse=True)


def test_summary_is_json_round_trippable(mini_run):
    text = (mini_run.path / "summary.json").read_text()
    assert json.loads(text) == mini_run.summary


def test_record_notes_worker_count(mini_run):
    record = json.loads((mini_run.path / "record.json").read_text())
    assert record["workers"] == 1
    assert record["config_hash"] == mini_run.hash


def test_outputs_identical_across_worker_counts(mini_config, mini_run, tmp_path):
    other = run(mini_config, tmp_path / "w2", workers=2)
    for name in ["summary.json", "config.cfg"]:
        assert (other.path / name).read_bytes() == (mini_run.path / name).read_bytes()
    for path in (mini_run.path / "observables").iterdir():
        assert (other.path / "observables" / path.name).read_bytes() == path.read_bytes()


def test_worker_count_from_environment(mini_config, tmp_path, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    record = run(mini_config, tmp_path / "env")
    assert record.workers == 2
    monkeypatch.setenv(WORKERS_ENV, "zero")
    with pytest.raises(ConfigError):
        run(mini_config, tmp_path / "bad")


def test_run_requires_outdir(mini_config):
    with pytest.raises(ConfigError, match="output directory"):
        run(mini_config)


def test_store_graphs_round_trip(mini_config, tmp_path):
    config = with_overrides(mini_config, store_graphs=True, ensemble=2)
    record = run(config, tmp_path / "stored")
    stored = read_edge_list(record.path / "graphs" / "graph_0000.edges")
    direct = build_graph(config, 0)
    assert list(stored.bonds()) == list(direct.bonds())


@pytest.mark.parametrize("workers", [1, 2])
def test_store_graphs_generates_each_member_once(mini_config, tmp_path, monkeypatch, workers):
    config = with_overrides(mini_config, store_graphs=True, ensemble=3)
    built = []
    real_build = pipeline.build_graph

    def build(config, index):
        built.append(index)
        return real_build(config, index)

    monkeypatch.setattr(pipeline, "build_graph", build)
    record = run(config, tmp_path / "stored", workers=workers)
    if workers == 1:  # a pool's workers count in their own processes
        assert built == [0, 1, 2]
    for i in range(config.ensemble):
        stored = (record.path / "graphs" / f"graph_{i:04d}.edges").read_bytes()
        assert stored == dumps_edge_list(real_build(config, i)).encode()


def test_readme_lists_every_observables_file():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name, header, _ in pipeline.OBSERVABLE_FILES:
        assert f"| `{name}` | `{header}` |" in readme
