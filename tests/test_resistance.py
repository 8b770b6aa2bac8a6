import numpy as np
import pytest

from resistive_walk import resistance
from resistive_walk.errors import InvalidArgumentError, SolverError
from resistive_walk.generate import (
    ExpTailParams,
    LongRangeParams,
    fixture,
    generate_exp_tail,
    generate_long_range,
)
from resistive_walk.oracle import dense_green, dense_resistance
from resistive_walk.pipeline import scale_observables
from resistive_walk.resistance import (
    OriginResistanceCache,
    ProjectedLine,
    dirichlet_potential,
    effective_resistance,
    green_row,
    max_pointwise_ratios,
    project_long_bonds,
    projected_complement_resistance,
)
from resistive_walk.scaling import GrowthFunction

FIXTURES = [
    ("path", 3),
    ("parallel_pair", None),
    ("cycle", 5),
    ("ladder", 4),
    ("binary_tree", 3),
    ("line", 6),
]


@pytest.mark.parametrize("name, size", FIXTURES)
def test_matches_dense_oracle(name, size):
    g = fixture(name, size)
    labels = list(g.labels)
    A, B = [labels[0]], [labels[-1]]
    assert effective_resistance(g, A, B) == pytest.approx(
        dense_resistance(g, A, B), rel=1e-10
    )


def test_path_series_law():
    for n in (2, 5, 9):
        g = fixture("path", n)
        assert effective_resistance(g, [0], [n]) == pytest.approx(n, rel=1e-10)


def test_parallel_law():
    g = fixture("parallel_pair")
    assert effective_resistance(g, [0], [1]) == pytest.approx(0.5, rel=1e-10)


def test_added_bond_composes_in_parallel():
    g = fixture("path", 4)
    base = effective_resistance(g, [0], [4])
    h = g.with_bond(0, 4, 0.5)
    expected = 1.0 / (1.0 / base + 0.5)
    assert effective_resistance(h, [0], [4]) == pytest.approx(expected, rel=1e-10)


def test_rayleigh_monotonicity():
    for seed in range(20):
        g = generate_long_range(LongRangeParams(32, 1.0, 3.5, seed=seed))
        rng = np.random.default_rng(seed)
        u, v = sorted(rng.choice(np.arange(-30, 31), size=2, replace=False).tolist())
        base = effective_resistance(g, [0], [g.window[1]])
        bumped = effective_resistance(
            g.with_bond(int(u), int(v), 2.0), [0], [g.window[1]]
        )
        assert bumped <= base + 1e-12


def test_potential_interpolates_between_sets():
    g = fixture("path", 4)
    pot = dirichlet_potential(g, [0], [4])
    assert pot.value(0) == pytest.approx(1.0)
    assert pot.value(4) == pytest.approx(0.0)
    assert pot.value(2) == pytest.approx(0.5, rel=1e-10)
    assert pot.energy > 0
    assert pot.residual <= 1e-10
    assert pot.iterations == 1


def test_requires_disjoint_nonempty_sets():
    g = fixture("path", 4)
    with pytest.raises(InvalidArgumentError):
        effective_resistance(g, [0], [0, 4])
    with pytest.raises(InvalidArgumentError):
        effective_resistance(g, [], [4])


def test_green_row_matches_oracle():
    g = generate_long_range(LongRangeParams(64, 1.0, 3.5, seed=7))
    domain = [x for x in range(-6, 7)]
    row = green_row(g, domain, 0)
    oracle = dense_green(g, domain, 0)
    assert row.values == pytest.approx(oracle, rel=1e-9)


def test_green_diagonal_is_complement_resistance(lrp128):
    domain = lrp128.ball(0, 9, metric="line").tolist()
    row = green_row(lrp128, domain, 0)
    outside = [x for x in lrp128.labels.tolist() if x not in set(domain)]
    assert row.diagonal == pytest.approx(
        effective_resistance(lrp128, [0], outside), rel=1e-9
    )


def test_green_row_is_nonnegative(lrp128):
    row = green_row(lrp128, lrp128.ball(0, 12, metric="line").tolist(), 0)
    assert np.all(row.values >= -1e-12)


def test_origin_cache_matches_pair_resistances(lrp128):
    cache = OriginResistanceCache(lrp128)
    targets = [-9, -3, 1, 5, 20]
    values = cache.pair_resistance(targets)
    for y, got in zip(targets, values):
        assert got == pytest.approx(
            effective_resistance(lrp128, [0], [y]), rel=1e-9
        )
    assert cache.pair_resistance([0]) == pytest.approx([0.0])


def test_pair_resistance_with_repeats_and_the_ground_matches_single_calls(lrp128):
    labels = [5, 0, -3, 5, 0, 20, -3]
    got = OriginResistanceCache(lrp128).pair_resistance(labels)
    single = [OriginResistanceCache(lrp128).pair_resistance([y])[0] for y in labels]
    assert got.tobytes() == np.asarray(single).tobytes()
    assert got[1] == got[4] == 0.0


# 22 distinct labels besides the ground 0, so solve blocks of 8, 8 and 6 columns
BLOCKED_LABELS = list(range(-11, 12)) + [5, 0, -3]


@pytest.fixture(scope="module")
def lrp64():
    return generate_long_range(LongRangeParams(64, 1.0, 3.5, seed=7))


@pytest.fixture(scope="module")
def lrp64_dense(lrp64):
    return [0.0 if y == 0 else dense_resistance(lrp64, [0], [y]) for y in BLOCKED_LABELS]


def test_blocked_pair_resistances_match_single_calls_and_the_dense_oracle(lrp64, lrp64_dense):
    free = len(set(BLOCKED_LABELS) - {0})
    assert free > 2 * resistance._CHECK_COLUMNS and free % resistance._CHECK_COLUMNS
    got = OriginResistanceCache(lrp64).pair_resistance(BLOCKED_LABELS)
    single = [OriginResistanceCache(lrp64).pair_resistance([y])[0] for y in BLOCKED_LABELS]
    assert got.tobytes() == np.asarray(single).tobytes()
    np.testing.assert_allclose(got, lrp64_dense, rtol=1e-10, atol=0)


def test_wrong_solve_in_a_later_block_raises_solver_error(late_wrong_solves, lrp64):
    # the first two blocks' solves are exact, so those blocks alone pass
    free = sorted(set(BLOCKED_LABELS) - {0})
    OriginResistanceCache(lrp64).pair_resistance(free[:2 * resistance._CHECK_COLUMNS])
    with pytest.raises(SolverError, match="residual"):
        OriginResistanceCache(lrp64).pair_resistance(BLOCKED_LABELS)


def test_refinement_step_mends_inexact_solves_in_every_block(inexact_solves, lrp64, lrp64_dense):
    got = OriginResistanceCache(lrp64).pair_resistance(BLOCKED_LABELS)
    np.testing.assert_allclose(got, lrp64_dense, rtol=1e-10, atol=0)


def test_pointwise_ratios_of_no_radii_factor_nothing(monkeypatch, lrp128):
    def no_factor(a):
        raise AssertionError("factored for no radii")

    monkeypatch.setattr(resistance, "splu", no_factor)
    assert max_pointwise_ratios(lrp128, []) == []


@pytest.mark.parametrize("half_width, tail, seed", [(24, 2.2, 1), (48, 3.0, 2), (99, 3.5, 3)])
def test_pointwise_ratios_match_dense_oracle(half_width, tail, seed):
    g = generate_long_range(LongRangeParams(half_width, 1.0, tail, seed=seed))
    growth = GrowthFunction(0.8, 0.5)
    radii = [1, 2, half_width // 8, half_width // 4]
    got = max_pointwise_ratios(g, radii, "line", growth)
    dist = g.distances_from(0, "line")
    for R, (ratio, witness) in zip(radii, got):
        ys = [int(y) for y, d in zip(g.labels, dist) if 0 < d < R]
        if not ys:
            assert (ratio, witness) == (0.0, None)
            continue
        dense = np.asarray(
            [dense_resistance(g, [0], [y]) / growth(abs(y)) for y in ys]
        )
        assert ratio == pytest.approx(dense.max(), rel=1e-9)
        assert dense[ys.index(witness)] == pytest.approx(dense.max(), rel=1e-9)
        runner_up = np.sort(dense)[-2] if dense.size > 1 else -np.inf
        if runner_up < dense.max() * (1 - 1e-8):
            assert witness == ys[int(np.argmax(dense))]


def _full_scan(g, radii, metric, growth):
    """Every ball label through one `pair_resistance` call, then the first argmax per radius."""
    dist = g.distances_from(g.marked, metric)
    sel = (dist < max(radii)) & (g.labels != g.marked)
    labels, d = g.labels[sel], dist[sel]
    denom = np.asarray([(growth or float)(float(x)) for x in d])
    ratios = OriginResistanceCache(g).pair_resistance(labels) / denom
    out = []
    for R in radii:
        k = int(np.argmax(np.where(d < R, ratios, -np.inf)))
        out.append((ratios[k], int(labels[k])))
    return out


def _lrp(tail, seed):
    return generate_long_range(LongRangeParams(256, 1.0, tail, seed=seed))


def _bounded_cases():
    radii = [4, 8, 16, 32, 64]
    for seed in (0, 1, 2):
        for tail in (2.2, 3.0, 3.5):
            yield pytest.param(_lrp(tail, seed), radii, "line", None, id=f"lrp-{tail}-{seed}")
        yield pytest.param(generate_exp_tail(ExpTailParams(256, 1.0, seed=seed)), radii, "line",
                           None, id=f"exp-{seed}")
        yield pytest.param(_lrp(3.0, seed), [32, 4, 16, 4], "line", GrowthFunction(0.8, 0.5),
                           id=f"line-growth-{seed}")
    yield pytest.param(fixture("binary_tree", 7), [2, 4, 7], "graph", None, id="binary-tree")
    yield pytest.param(fixture("ladder", 40), [3, 10, 30], "graph", None, id="ladder")


@pytest.mark.parametrize("g, radii, metric, growth", _bounded_cases())
def test_bounded_pointwise_search_matches_the_full_scan(g, radii, metric, growth):
    got = max_pointwise_ratios(g, radii, metric, growth)
    want = _full_scan(g, radii, metric, growth)
    assert np.asarray([r for r, _ in got]).tobytes() == np.asarray([r for r, _ in want]).tobytes()
    assert [w for _, w in got] == [w for _, w in want]


@pytest.mark.parametrize(
    "g",
    [generate_long_range(LongRangeParams(64, 1.0, 2.2, seed=4)),
     generate_long_range(LongRangeParams(64, 1.0, 3.5, seed=5)),
     generate_exp_tail(ExpTailParams(64, 1.0, seed=6)),
     fixture("ladder", 12),
     fixture("binary_tree", 5)],
    ids=["lrp-2.2", "lrp-3.5", "exp", "ladder", "binary-tree"],
)
def test_path_resistance_bounds_the_dense_resistance(g):
    bound = resistance._path_resistance_bound(g)
    dense = np.asarray([0.0 if y == g.marked else dense_resistance(g, [g.marked], [y])
                        for y in g.labels.tolist()])
    assert np.all(bound >= dense * (1 - 1e-12))
    if g.n_bonds == g.n_vertices - 1:  # a tree: the only path is the resistance
        np.testing.assert_allclose(bound, dense, rtol=1e-10, atol=0)


def _logged(cache):
    """Wrap `cache.pair_resistance` to record the number of labels of every call."""
    calls, solve = [], cache.pair_resistance

    def pair_resistance(labels):
        calls.append(len(labels))
        return solve(labels)

    cache.pair_resistance = pair_resistance
    return cache, calls


def test_bounded_pointwise_search_solves_fewer_targets_than_the_ball():
    g = generate_long_range(LongRangeParams(1024, 1.0, 3.5, seed=20260825))
    radii = [8, 16, 32, 64, 128, 256]
    cache, calls = _logged(OriginResistanceCache(g))
    got = max_pointwise_ratios(g, radii, "line", None, cache)
    assert got == _full_scan(g, radii, "line", None)
    ball = int(np.count_nonzero(np.abs(g.labels) < max(radii))) - 1
    assert sum(calls) < ball


def test_wrong_solve_in_the_second_round_raises_solver_error(scaled_solves):
    g = _lrp(3.0, 1)
    radii = [8, 16, 32]
    cache, calls = _logged(OriginResistanceCache(g))
    max_pointwise_ratios(g, radii, "line", None, cache)
    assert len(calls) == 2 and calls[1] > 0
    # the first round's solves are exact, every later one is 50% off
    scaled_solves(1.5, exact=-(-calls[0] // resistance._CHECK_COLUMNS))
    cache, calls = _logged(OriginResistanceCache(g))
    with pytest.raises(SolverError, match="residual"):
        max_pointwise_ratios(g, radii, "line", None, cache)
    assert len(calls) == 2


def test_wrong_solution_raises_solver_error(wrong_solves, lrp128):
    with pytest.raises(SolverError, match="residual"):
        effective_resistance(lrp128, [0], [40])
    with pytest.raises(SolverError, match="residual"):
        green_row(lrp128, list(range(-6, 7)), 0)
    cache = OriginResistanceCache(lrp128)
    with pytest.raises(SolverError, match="residual"):
        cache.pair_resistance([-3, 5])


def test_refinement_step_mends_an_inexact_solve(inexact_solves):
    g = generate_long_range(LongRangeParams(48, 1.0, 3.0, seed=2))
    pot = dirichlet_potential(g, [0], [20])
    assert pot.iterations == 2
    assert pot.residual <= 1e-10
    assert 1.0 / pot.energy == pytest.approx(dense_resistance(g, [0], [20]), rel=1e-9)
    domain = list(range(-6, 7))
    assert green_row(g, domain, 0).values == pytest.approx(dense_green(g, domain, 0), rel=1e-9)
    got = OriginResistanceCache(g).pair_resistance([-3, 5])
    assert got == pytest.approx([dense_resistance(g, [0], [y]) for y in (-3, 5)], rel=1e-9)


def test_failed_factorization_raises_solver_error(monkeypatch, lrp128):
    def singular(a):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(resistance, "splu", singular)
    with pytest.raises(SolverError, match="singular"):
        effective_resistance(lrp128, [0], [40])
    with pytest.raises(SolverError, match="singular"):
        OriginResistanceCache(lrp128)


def test_profile_complement_resistances(line64):
    rows = scale_observables(line64, [2, 4, 8], metric="line")
    # two arms of length R in parallel
    for row in rows:
        assert row.complement_resistance == pytest.approx(row.radius / 2, rel=1e-9)
        assert row.max_pointwise_ratio == pytest.approx(1.0, rel=1e-9)


def test_profile_rejects_nonpositive_radii(line64):
    with pytest.raises(InvalidArgumentError):
        scale_observables(line64, [0, 2], metric="line")


def test_projection_reproduces_shorted_chord():
    g = fixture("path", 3).with_bond(0, 3, 1.0)
    projected = project_long_bonds(g, side=1)
    assert projected.conductances == pytest.approx([4.0, 4.0, 4.0])
    assert projected.resistance(3) == pytest.approx(0.75, rel=1e-12)
    # the shorted value happens to be exact here
    assert effective_resistance(g, [0], [3]) == pytest.approx(0.75, rel=1e-10)


def test_projection_is_a_lower_bound():
    for seed in range(15):
        g = generate_long_range(LongRangeParams(64, 1.0, 3.5, seed=seed))
        for radius in (4, 8, 16):
            outside = g.labels[np.abs(g.labels) >= radius].tolist()
            exact = effective_resistance(g, [0], outside)
            assert projected_complement_resistance(g, radius) <= exact + 1e-10


def test_projection_requires_line_labels():
    from resistive_walk.graph import Graph

    g = Graph([(0, 1, 1.0), (1, 3, 1.0)], marked=0)
    with pytest.raises(InvalidArgumentError, match="contiguous"):
        project_long_bonds(g)


def test_projected_line_validates_distance():
    line = ProjectedLine(side=1, conductances=np.asarray([1.0, 2.0]))
    assert line.resistance(2) == pytest.approx(1.5)
    with pytest.raises(InvalidArgumentError):
        line.resistance(3)
