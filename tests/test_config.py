import io

import numpy as np
import pytest

from resistive_walk.config import (
    PRESET_NAMES,
    config_hash,
    format_value,
    load_preset,
    parse_config,
    serialize_config,
    validate_config,
    with_overrides,
    write_csv,
)
from resistive_walk.errors import ConfigError
from resistive_walk.generate import FIXTURE_SIZES
from resistive_walk.pipeline import build_graph


def test_round_trip(mini_config_text):
    config = parse_config(mini_config_text)
    again = parse_config(serialize_config(config))
    assert again == config
    assert serialize_config(again) == serialize_config(config)


def test_defaults_are_applied(mini_config_text):
    config = parse_config(mini_config_text)
    assert config.volume_exponent == 1.0
    assert config.store_graphs is False


def test_comments_and_blank_lines_are_ignored():
    config = parse_config(
        "# leading comment\n\nname = x\nmodel = fixture\nfixture_name = path\n"
        "fixture_size = 4\n"
    )
    assert config.name == "x"


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 3: unknown key 'shape'"):
        parse_config("name = x\nmodel = fixture\nshape = toroidal\n")


def test_repeated_key_is_rejected():
    with pytest.raises(ConfigError, match="repeated key"):
        parse_config("name = x\nname = y\nmodel = fixture\n")


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="missing required key 'model'"):
        parse_config("name = x\n")


def test_bad_value_reports_key():
    with pytest.raises(ConfigError, match="bad value for 'ensemble'"):
        parse_config("name = x\nmodel = lrp\nensemble = many\n")


def test_bad_bool():
    with pytest.raises(ConfigError, match="true or false"):
        parse_config("name = x\nmodel = lrp\nhalf_width = 8\nstore_graphs = yes\n")


BASE = "name = x\nmodel = lrp\nhalf_width = 64\ntail_exponent = 3.5\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        ("metric = euclid\n", "metric"),
        ("ensemble = 0\n", "ensemble"),
        ("radius_grid = 4,4,8\n", "strictly increasing"),
        ("time_grid = 2,4,7\n", "even"),
        ("tolerance_grid = 0.5,2\n", "tolerance_grid"),
        ("theta_star = 0.5\n", "theta_star"),
        ("beta = nan\n", "beta must be finite"),
        ("theta_star = nan\n", "theta_star must be finite"),
        ("radius_grid = 4,8\nmc_exit_radii = 4,16\n", "subset"),
        ("radius_grid = 4,8\nmc_exit_radii = 4\n", "need a time_grid"),
        ("goodscale_radii = 8\ntolerance_grid = 2\n",
         "goodscale_radii need at least two tolerance_grid entries"),
        ("goodscale_radii = 8\ntolerance_grid =\n",
         "goodscale_radii need at least two tolerance_grid entries"),
        ("radius_grid = 4,32\n", "quarter"),
        ("time_grid = 8,100000000000000000000\n", "time_grid must fit in a 64-bit integer"),
        ("n_trajectories = 99999999999999999999\n", "n_trajectories must fit in a 64-bit"),
        ("radius_grid = 0,4\n", "radius_grid entries must be at least 1"),
        ("n_trajectories = 0\n", "n_trajectories must be at least 1"),
    ],
)
def test_validation_failures(extra, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(BASE + extra)


def test_model_specific_requirements():
    with pytest.raises(ConfigError, match="half_width"):
        parse_config("name = x\nmodel = lrp\n")
    with pytest.raises(ConfigError, match="tail_exponent"):
        parse_config("name = x\nmodel = lrp\nhalf_width = 8\ntail_exponent = 2.0\n")
    with pytest.raises(ConfigError, match="rate"):
        parse_config("name = x\nmodel = exp\nhalf_width = 8\nrate = 0\n")
    with pytest.raises(ConfigError, match="fixture_name"):
        parse_config("name = x\nmodel = fixture\n")


def test_unknown_model_is_refused_by_name():
    with pytest.raises(ConfigError, match=r"model must be one of \('lrp', 'exp', 'fixture'\), "
                       r"got 'torus'"):
        parse_config("name = x\nmodel = torus\n")


FIXTURE = "name = x\nmodel = fixture\n"


@pytest.mark.parametrize(
    "extra, message",
    [("fixture_name = nope\n", "unknown fixture 'nope'"),
     ("fixture_name = cycle\nfixture_size = 2\n", "'cycle' takes a size of at least 3"),
     ("fixture_name = line\n", "'line' takes a size of at least 2"),
     ("fixture_name = parallel_pair\nfixture_size = 3\n", "'parallel_pair' takes no size")],
    ids=["unknown-family", "cycle-too-small", "line-without-size", "parallel-pair-with-size"],
)
def test_fixture_rules_are_checked_at_parse(extra, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(FIXTURE + extra)


def test_smallest_fixture_sizes_parse():
    for name, sizes in FIXTURE_SIZES.items():
        size = sizes[0] if sizes else 0
        config = parse_config(FIXTURE + f"fixture_name = {name}\nfixture_size = {size}\n")
        assert build_graph(config, 0).n_bonds >= 1


def test_fixture_sizes_past_the_largest_are_refused_at_parse():
    with pytest.raises(ConfigError, match="'binary_tree' takes a size of at most 23"):
        parse_config(FIXTURE + "fixture_name = binary_tree\nfixture_size = 70\n")
    for name, sizes in FIXTURE_SIZES.items():
        if sizes:
            parse_config(FIXTURE + f"fixture_name = {name}\nfixture_size = {sizes[1]}\n")
            with pytest.raises(ConfigError, match=f"{name!r} takes a size of at most"):
                parse_config(FIXTURE + f"fixture_name = {name}\nfixture_size = {sizes[1] + 1}\n")


@pytest.mark.parametrize(
    "text, key",
    [("name = x\nmodel = lrp\nhalf_width = 99999999999999999999\n", "half_width"),
     ("name = x\nmodel = fixture\nfixture_name = line\nfixture_size = 99999999999999999999\n",
      "fixture_size")],
)
def test_window_sizes_must_fit_in_int64(text, key):
    with pytest.raises(ConfigError, match=f"{key} must fit in a 64-bit integer"):
        parse_config(text)


def test_master_seed_may_exceed_int64():
    config = parse_config(BASE + "master_seed = 99999999999999999999\n")
    assert config.master_seed == 99999999999999999999


def test_presets_all_load_and_validate():
    for name in PRESET_NAMES:
        config = load_preset(name)
        validate_config(config)
        assert config.name == name


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        load_preset("nope")


def test_with_overrides_revalidates(mini_config_text):
    config = parse_config(mini_config_text)
    bigger = with_overrides(config, ensemble=9)
    assert bigger.ensemble == 9
    assert with_overrides(config, ensemble=np.int64(3)).ensemble == 3
    with pytest.raises(ConfigError):
        with_overrides(config, ensemble=0)
    # an integer key takes integers, never floats or booleans, however they compare
    for key, value in [("ensemble", 2.0), ("half_width", 512.0), ("n_trajectories", 8.0),
                       ("ensemble", True), ("time_grid", (8.0, 16)), ("goodscale_radii", (2.5, 8)),
                       ("radius_grid", (2, np.float64(4.0))), ("mc_exit_radii", (False,))]:
        with pytest.raises(ConfigError, match=f"^{key} takes integers only$"):
            with_overrides(config, **{key: value})


def test_hash_tracks_content(mini_config_text):
    config = parse_config(mini_config_text)
    assert config_hash(config) == config_hash(config)
    other = with_overrides(config, master_seed=100)
    assert config_hash(other) != config_hash(config)


@pytest.mark.parametrize(
    "value, text",
    [(None, ""), (True, "true"), (np.bool_(False), "false"), (7, "7"), (np.int32(-3), "-3"),
     (0.1, "0.1"), (np.float64(1e-300), "1e-300"), (2.0, "2.0"), (float("inf"), "inf"),
     ((4, 8), "4,8"), ((2.0, 0.5), "2.0,0.5"), ((), ""), ("mini", "mini")],
)
def test_format_value(value, text):
    assert format_value(value) == text


def test_write_csv_writes_header_and_rows():
    stream = io.StringIO()
    write_csv(stream, "graph,R,ok", [(0, 4, True), (1, np.int64(8), None)])
    assert stream.getvalue() == "graph,R,ok\n0,4,true\n1,8,\n"
