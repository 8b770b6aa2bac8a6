import json

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from resistive_walk import pipeline
from resistive_walk.config import parse_config, with_overrides
from resistive_walk.errors import ConfigError
from resistive_walk.generate import mix_seed
from resistive_walk.graph import dumps_edge_list, read_edge_list
from resistive_walk.pipeline import (
    WORKERS_ENV,
    build_graph,
    graph_seed,
    growth_functions,
    member_observables,
    run,
    walk_seed,
)
from resistive_walk.resistance import effective_resistance
from resistive_walk.scaling import evaluate_good_scale, scale_observables


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


def test_member_observables_are_reproducible(mini_config):
    a = member_observables(mini_config, 1)
    b = member_observables(mini_config, 1)
    assert a["volumes"] == b["volumes"]
    assert a["exit_exact"] == b["exit_exact"]
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
    for radius, volume in res["volumes"].items():
        assert volume == pytest.approx(g.volume(0, radius, metric="line"))


def test_member_complement_matches_direct_solve(mini_config):
    res = member_observables(mini_config, 0)
    g = build_graph(mini_config, 0)
    dist = g.distances_from(0, metric="line")
    for radius, reff in res["complement"].items():
        outside = g.labels[dist >= radius].tolist()
        assert reff == pytest.approx(
            effective_resistance(g, [0], outside), rel=1e-9
        )


def test_scale_observables_match_member_observables(mini_config):
    # the library's ball routine and the pipeline's own loop agree bit for bit
    res = member_observables(mini_config, 0)
    g = build_graph(mini_config, 0)
    volume_growth, resistance_growth = growth_functions(mini_config)
    rows = scale_observables(
        g, mini_config.goodscale_radii, mini_config.metric, resistance_growth
    )
    assert [row.radius for row in rows] == list(mini_config.goodscale_radii)
    for row in rows:
        R = row.radius
        assert repr((row.volume, row.complement_resistance,
                     row.max_pointwise_ratio, row.witness)) == repr(
            (res["volumes"][R], res["complement"][R], *res["pointwise"][R])
        )
        assert res["goodscale"][R] == [
            evaluate_good_scale(row, lam, volume_growth, resistance_growth)
            for lam in mini_config.tolerance_grid
        ]


def test_run_writes_expected_files(mini_run):
    names = {p.name for p in mini_run.path.iterdir()}
    assert {"config.cfg", "summary.json", "record.json", "observables"} <= names
    observables = {p.name for p in (mini_run.path / "observables").iterdir()}
    assert observables == {
        "volumes.csv", "resistance.csv", "pointwise.csv", "exit_exact.csv",
        "kernel.csv", "walk.csv", "walk_exit.csv", "displacements.csv",
        "goodscale.csv",
    }


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
