import tracemalloc

import numpy as np
import pytest

from resistive_walk import walk
from resistive_walk.errors import InvalidArgumentError, SolverError, TruncationError
from resistive_walk.generate import (
    ExpTailParams,
    LongRangeParams,
    fixture,
    generate_exp_tail,
    generate_long_range,
    mix_seed,
)
from resistive_walk.graph import Graph
from resistive_walk.oracle import dense_heat_kernel, dense_mean_exit
from resistive_walk.resistance import green_row
from resistive_walk.walk import heat_kernel_exact, mean_exit_time_exact, simulate


def test_kernel_series_matches_oracle():
    g = fixture("ladder", 4)
    table = heat_kernel_exact(g, 0, 10)
    oracle = dense_heat_kernel(g, 0, 10)
    oi = list(g.labels).index(0)
    assert table.origin_series == pytest.approx(oracle[:, oi], rel=1e-12)


def test_kernel_snapshot_rows_match_oracle():
    g = fixture("cycle", 7)
    table = heat_kernel_exact(g, 0, 6, snapshots=(3, 6))
    oracle = dense_heat_kernel(g, 0, 6)
    assert table.snapshots[3] == pytest.approx(oracle[3], rel=1e-12)
    assert table.snapshots[6] == pytest.approx(oracle[6], rel=1e-12)


def _dense_killed_contact(g, origin, n_steps):
    """1 - P(no window-edge vertex visited by step t), by dense killed products."""
    n = g.n_vertices
    W = np.zeros((n, n))
    np.add.at(W, (g.bond_u, g.bond_v), g.bond_c)
    np.add.at(W, (g.bond_v, g.bond_u), g.bond_c)
    P = W / W.sum(axis=1)[:, None]
    edge = np.isin(g.labels, g.window)
    q = np.zeros(n)
    q[g.index(origin)] = 1.0
    alive = np.where(edge, 0.0, q)
    contact, first_hit = [1.0 - alive.sum()], None
    for t in range(1, n_steps + 1):
        q = q @ P
        alive = np.where(edge, 0.0, alive @ P)
        contact.append(1.0 - alive.sum())
        if first_hit is None and q[edge].sum() > 0:
            first_hit = t
    return np.asarray(contact), first_hit


@pytest.mark.parametrize(
    "half_width,tail_exponent,seed", [(32, 2.2, 1), (48, 3.0, 2), (64, 3.5, 3)]
)
def test_light_cone_kernel_matches_dense_oracle(half_width, tail_exponent, seed):
    g = generate_long_range(LongRangeParams(half_width, 1.0, tail_exponent, seed=seed))
    rng = np.random.default_rng(seed)
    origin = int(rng.integers(-half_width // 2, half_width // 2 + 1))
    hops = g.distances_from(origin)
    edge_step = int(hops[np.isin(g.labels, g.window)].min())
    n_steps = 2 * edge_step  # the cone reaches the edge mid-run
    steps = (0, 1, edge_step - 1, edge_step, n_steps)
    table = heat_kernel_exact(g, origin, n_steps, snapshots=steps)

    oracle = dense_heat_kernel(g, origin, n_steps)
    np.testing.assert_allclose(
        table.origin_series, oracle[:, g.index(origin)], rtol=1e-12, atol=1e-15
    )
    for t in steps:
        np.testing.assert_allclose(table.snapshots[t], oracle[t], rtol=1e-12, atol=1e-15)

    contact, first_hit = _dense_killed_contact(g, origin, n_steps)
    assert first_hit == edge_step
    np.testing.assert_allclose(table.boundary_contact, contact, rtol=0, atol=1e-12)
    assert np.all(table.boundary_contact[:edge_step] == 0.0)
    assert table.boundary_contact[edge_step] > 0.0


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@pytest.mark.parametrize(
    "half_width,tail_exponent,seed", [(32, 2.2, 1), (48, 3.0, 2), (64, 3.5, 3)]
)
def test_half_horizon_kernel_matches_dense_oracle(half_width, tail_exponent, seed, parity):
    # q stops at ceil(n / 2) unless the window edge or a snapshot lies further
    g = generate_long_range(LongRangeParams(half_width, 1.0, tail_exponent, seed=seed))
    hops = g.distances_from(0)
    edge_step = int(hops[np.isin(g.labels, g.window)].min())
    n_steps = 3 * edge_step // 2
    n_steps += (n_steps - parity) % 2
    assert n_steps / 2 < edge_step < n_steps and n_steps % 2 == parity
    table = heat_kernel_exact(g, 0, n_steps)
    oracle = dense_heat_kernel(g, 0, n_steps)
    np.testing.assert_allclose(
        table.origin_series, oracle[:, g.index(0)], rtol=1e-12, atol=1e-15
    )
    contact, _ = _dense_killed_contact(g, 0, n_steps)
    np.testing.assert_allclose(table.boundary_contact, contact, rtol=0, atol=1e-12)
    assert np.all(table.boundary_contact[:edge_step] == 0.0)

    # snapshots past n / 2 run q further and leave the series as it was
    steps = (n_steps // 2 + 1, edge_step + 1, n_steps)
    snapped = heat_kernel_exact(g, 0, n_steps, snapshots=steps)
    for t in steps:
        np.testing.assert_allclose(snapped.snapshots[t], oracle[t], rtol=1e-12, atol=1e-15)
    assert snapped.origin_series.tobytes() == table.origin_series.tobytes()
    assert snapped.boundary_contact.tobytes() == table.boundary_contact.tobytes()

    # every sum runs over the reach[t] prefix of the cone, so a longer horizon,
    # with its larger cone and blocks, leaves the earlier steps as they were;
    # below the edge step the shorter horizon's cone caps its blocks
    for horizon in (edge_step - 1, n_steps):
        short = heat_kernel_exact(g, 0, horizon).origin_series
        longer = heat_kernel_exact(g, 0, 2 * horizon).origin_series
        assert longer[: horizon + 1].tobytes() == short.tobytes()


@pytest.mark.parametrize("n_steps", [100, 101])
def test_half_horizon_kernel_on_the_line_keeps_odd_returns_exactly_zero(line64, n_steps):
    # the window edge, 64 hops out, lies between n / 2 and n
    table = heat_kernel_exact(line64, 0, n_steps, snapshots=(55,))
    oracle = dense_heat_kernel(line64, 0, n_steps)
    assert np.all(table.origin_series[1::2] == 0.0)
    np.testing.assert_allclose(
        table.origin_series[::2], oracle[::2, line64.index(0)], rtol=1e-12, atol=0
    )
    np.testing.assert_allclose(table.snapshots[55], oracle[55], rtol=1e-12, atol=1e-15)
    contact, first_hit = _dense_killed_contact(line64, 0, n_steps)
    assert first_hit == 64
    np.testing.assert_allclose(table.boundary_contact, contact, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_steps", [10, 11])
def test_half_horizon_kernel_on_an_untruncated_graph_matches_dense_oracle(n_steps):
    g = fixture("cycle", 7)  # odd, so odd returns are positive
    oracle = dense_heat_kernel(g, 0, n_steps)
    table = heat_kernel_exact(g, 0, n_steps)
    np.testing.assert_allclose(table.origin_series, oracle[:, g.index(0)], rtol=1e-12)
    snapped = heat_kernel_exact(g, 0, n_steps, snapshots=(7, n_steps))
    for t in (7, n_steps):
        np.testing.assert_allclose(snapped.snapshots[t], oracle[t], rtol=1e-12, atol=1e-15)


def test_kernel_raises_when_mass_drifts(monkeypatch, lrp128):
    monkeypatch.setattr(lrp128, "measure", 1.01 * lrp128.measure)
    with pytest.raises(SolverError, match="mass drifted"):
        heat_kernel_exact(lrp128, 0, 8)


def test_line_return_probability():
    g = fixture("line", 16)
    table = heat_kernel_exact(g, 0, 4)
    assert table.origin_series[0] == pytest.approx(0.5)
    assert table.origin_series[1] == 0.0
    assert table.origin_series[2] == pytest.approx(0.25)


def test_even_series_is_nonincreasing(lrp128):
    table = heat_kernel_exact(lrp128, 0, 64)
    _, p2n = table.even_series()
    assert np.all(np.diff(p2n) <= 1e-12)


def test_smoothed_kernel_is_nonincreasing_on_even_steps(lrp128):
    # p_n + p_{n+1} decays along even n (for odd n the negative part of the
    # spectrum can push it back up)
    table = heat_kernel_exact(lrp128, 0, 64)
    f = [table.smoothed(2 * m) for m in range(32)]
    assert np.all(np.diff(f) <= 1e-12)


def test_snapshot_bounds_are_checked(line64):
    for bad in (9, -1, 2.5):
        with pytest.raises(InvalidArgumentError, match="snapshot"):
            heat_kernel_exact(line64, 0, 4, snapshots=(bad,))
    for bad in (-1, 4.5, float("nan"), "4"):
        with pytest.raises(InvalidArgumentError, match="n_steps"):
            heat_kernel_exact(line64, 0, bad)
    table = heat_kernel_exact(line64, 0, 4)
    for bad in (2.5, -1, 4):
        with pytest.raises(InvalidArgumentError):
            table.smoothed(bad)
        with pytest.raises(InvalidArgumentError):
            table.row(bad)
    assert table.smoothed(2.0) == table.smoothed(2)
    assert table.row(2) == (table.origin_series[2], table.smoothed(2), table.boundary_contact[2])


def test_kernel_memory_stays_on_the_light_cone():
    # 64 steps reach a few hundred of the 131073 vertices; the kernel allocates
    # no window-length float or index array, only the cone's boolean mask over
    # the cached hop distances (one byte per vertex)
    g = generate_long_range(LongRangeParams(2**16, 1.0, 3.5, seed=7))
    g.distances_from(0)
    tracemalloc.start()
    try:
        heat_kernel_exact(g, 0, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * g.n_vertices


@pytest.mark.parametrize(
    "g, horizon",
    [(generate_long_range(LongRangeParams(2048, 1.0, 2.2, seed=1)), 300),
     (generate_long_range(LongRangeParams(2048, 1.0, 3.5, seed=2)), 4097),
     (fixture("binary_tree", 7), 4), (fixture("cycle", 30), 40), (fixture("parallel_pair"), 2)],
    ids=["lrp-s2.2", "lrp-s3.5-whole", "tree", "cycle", "pair"],
)
def test_cone_block_is_scipys_selection_byte_for_byte(g, horizon):
    cone, _ = walk._light_cone(g, g.marked, horizon)
    want = g.adjacency()[cone][:, cone]
    got = g.adjacency_block(cone, cone)
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_boundary_contact_counts_escaped_mass():
    g = fixture("line", 4)
    table = heat_kernel_exact(g, 0, 12)
    assert table.boundary_contact[3] == 0.0
    assert table.boundary_contact[4] > 0.0
    assert np.all(np.diff(table.boundary_contact) >= -1e-15)
    assert table.contaminated_from == 4


def test_untruncated_graph_reports_no_contact():
    g = fixture("cycle", 6)
    table = heat_kernel_exact(g, 0, 20)
    assert np.all(np.abs(table.boundary_contact) < 1e-12)
    assert table.contaminated_from is None


@pytest.mark.parametrize("radius", [2, 4, 8])
def test_line_exit_time_is_radius_squared(line64, radius):
    assert mean_exit_time_exact(line64, 0, radius, metric="line") == pytest.approx(
        radius**2, rel=1e-9
    )


def test_exit_time_matches_oracle():
    g = fixture("ladder", 6)
    ball = g.ball(0, 3, metric="graph").tolist()
    expected = dense_mean_exit(g, ball, 0)
    assert mean_exit_time_exact(g, 0, 3, metric="graph") == pytest.approx(
        expected, rel=1e-9
    )


# graphs and the origins besides the marked vertex whose exit times are checked
_EXIT_CASES = {
    "lrp": (lambda: generate_long_range(LongRangeParams(256, 1.0, 2.5, seed=4)), (5, -17)),
    "exp": (lambda: generate_exp_tail(ExpTailParams(256, 0.3, seed=5)), (9, -3)),
    "line": (lambda: fixture("line", 64), (7, -10)),
    "ladder": (lambda: fixture("ladder", 12), (5, 13)),
    "binary_tree": (lambda: fixture("binary_tree", 5), (3, 20)),
}


@pytest.mark.parametrize("metric", ["graph", "line"])
@pytest.mark.parametrize("name", list(_EXIT_CASES))
def test_exit_time_keeps_the_bits_of_its_green_row(name, metric):
    # the exit solve on the ball's vertex indices is the Green row of the ball's
    # labels, summed against the measure: the same system, factor and dot product
    build, others = _EXIT_CASES[name]
    g = build()
    for origin in (g.marked,) + others:
        checked = 0
        for radius in range(1, 10):
            try:
                g.check_ball(origin, radius, metric)
            except (InvalidArgumentError, TruncationError):
                break
            row = green_row(g, g.ball(origin, radius, metric), origin)
            want = float(row.values @ g.measure[g.indices(row.domain)])
            assert mean_exit_time_exact(g, origin, radius, metric) == want
            checked += 1
        assert checked >= 2, (origin, checked)


def test_exit_probe_respects_truncation(line64):
    with pytest.raises(InvalidArgumentError):
        mean_exit_time_exact(line64, 0, 40, metric="line")


def test_simulation_is_seed_deterministic(line64):
    a = simulate(line64, 0, 32, 16, seed=3, radii=(4,), time_grid=(8, 32), metric="line")
    b = simulate(line64, 0, 32, 16, seed=3, radii=(4,), time_grid=(8, 32), metric="line")
    assert np.array_equal(a.exit_time, b.exit_time)
    assert np.array_equal(a.displacement, b.displacement)
    c = simulate(line64, 0, 32, 16, seed=4, radii=(4,), time_grid=(8, 32), metric="line")
    assert not np.array_equal(a.displacement, c.displacement)


def test_simulation_is_chunk_invariant(line64, monkeypatch):
    kwargs = dict(radii=(2, 4), time_grid=range(1, 33), metric="line")
    monkeypatch.setattr(walk, "_CHUNK_SIZE", 256)
    a = simulate(line64, 0, 32, 23, seed=5, **kwargs)
    monkeypatch.setattr(walk, "_CHUNK_SIZE", 7)
    b = simulate(line64, 0, 32, 23, seed=5, **kwargs)
    for field in ("exit_time", "censored", "displacement", "max_displacement",
                  "range_weight", "range_size", "endpoint"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def _visited_loop_reference(g, origin, n_steps, n_traj, seed, radii, grid, metric):
    """Trajectory-by-trajectory walk with a visited array over all vertices."""
    adj = g.adjacency()
    indptr, indices = adj.indptr, adj.indices
    edge_cum = np.concatenate([[0.0], np.cumsum(adj.data)])
    mu = g.measure
    dist = g.distances_from(origin, metric)
    out = {k: [] for k in ("range_weight", "range_size", "endpoint", "displacement",
                           "max_displacement", "exit_time", "censored")}
    for i in range(n_traj):
        u = np.random.default_rng(mix_seed(seed, i)).random(n_steps)
        x = g.index(origin)
        visited = np.zeros(g.n_vertices, dtype=bool)
        visited[x] = True
        weight, size, far = mu[x], 1, 0
        exit_time = {R: None for R in radii}
        rows = {k: [] for k in ("range_weight", "range_size", "endpoint", "displacement",
                                "max_displacement")}
        for t in range(1, n_steps + 1):
            target = edge_cum[indptr[x]] + u[t - 1] * mu[x]
            pos = int(np.searchsorted(edge_cum, target, side="right")) - 1
            x = int(indices[min(max(pos, indptr[x]), indptr[x + 1] - 1)])
            if not visited[x]:
                visited[x] = True
                weight += mu[x]
                size += 1
            far = max(far, int(dist[x]))
            for R in radii:
                if exit_time[R] is None and far >= R:
                    exit_time[R] = t
            for _ in range(int(np.count_nonzero(grid == t))):
                for k, value in (("range_weight", weight), ("range_size", size),
                                 ("endpoint", g.labels[x]), ("displacement", dist[x]),
                                 ("max_displacement", far)):
                    rows[k].append(value)
        for k, value in rows.items():
            out[k].append(value)
        out["exit_time"].append([n_steps if exit_time[R] is None else exit_time[R]
                                 for R in radii])
        out["censored"].append([exit_time[R] is None for R in radii])
    return {k: np.asarray(v) for k, v in out.items()}


def _assert_matches_reference(g, origin, n_steps, n_traj, seed, radii, grid, metric):
    stats = simulate(g, origin, n_steps, n_traj, seed=seed, radii=radii, time_grid=grid,
                     metric=metric)
    ref = _visited_loop_reference(g, origin, n_steps, n_traj, seed, radii, np.asarray(grid),
                                  metric)
    for field, value in ref.items():
        got = getattr(stats, field)
        assert got.shape == value.shape, field
        assert got.tobytes() == value.astype(got.dtype).tobytes(), field
    assert stats.range_weight.dtype == np.float64
    return ref


@pytest.mark.parametrize("chunk_size", [1, 7, 256])
def test_simulation_matches_visited_array_reference(monkeypatch, chunk_size):
    monkeypatch.setattr(walk, "_CHUNK_SIZE", chunk_size)
    # random conductances make the measures non-integer; near the low end of
    # the labels they are fine enough that the range weight depends on the
    # order of summation, so the walk starts there
    w = generate_long_range(LongRangeParams(96, 1.0, 2.2, seed=4))
    c = 1.0 + 2.0 * np.random.default_rng(4).random(w.n_bonds)
    g = Graph.from_arrays(w.labels[w.bond_u], w.labels[w.bond_v], c, marked=0,
                          truncated=True)
    # a second measure, the row widths of the global conductance cumsum,
    # differs from g.measure here, so a walk that used it would fail below
    adj = g.adjacency()
    edge_cum = np.concatenate([[0.0], np.cumsum(adj.data)])
    assert np.any(edge_cum[adj.indptr[1:]] - edge_cum[adj.indptr[:-1]] != g.measure)
    ref = _assert_matches_reference(g, -80, 64, 23, 8, (2, 9, 30), [1, 5, 5, 17, 40, 64],
                                    "line")
    assert ref["censored"][:, -1].any() and not ref["censored"][:, -1].all()


def _hub_graph():
    """A line with random conductances where vertex 1 has 24 bonds, -1 has 9 and -3 has 10.

    The last bond of each of the three in adjacency order, the one to its
    highest neighbour, is its strongest, so the walk takes it often.
    """
    rng = np.random.default_rng(17)
    u, v = list(range(-60, 60)), list(range(-59, 61))
    c = list(1.0 + rng.random(len(u)))
    for x, far in ((1, range(5, 48, 2)), (-1, range(10, 29, 3)), (-3, range(50, 58))):
        u += [x] * len(far)
        v += list(far)
        c += [*(1.0 + rng.random(len(far) - 1)), 6.0]
    return Graph.from_arrays(u, v, c, marked=0, truncated=True)


@pytest.mark.parametrize("metric", ["graph", "line"])
def test_simulation_from_hub_rows_matches_reference(metric):
    # rows with more bonds than the step table holds take the global search
    g = _hub_graph()
    degree = dict(zip(g.labels.tolist(), np.diff(g.adjacency().indptr).tolist()))
    assert (degree[1], degree[-1], degree[-3]) == (24, 9, 10)
    assert degree[1] > walk._TABLE_BONDS >= degree[-1]
    ref = _assert_matches_reference(g, 0, 48, 60, 2, (3, 12), [1, 2, 16, 48], metric)
    assert ref["range_size"][:, -1].max() > 20


@pytest.mark.parametrize("n_steps", [1, 2, 3, 24])
def test_simulation_on_a_light_cone_smaller_than_the_window_matches_reference(n_steps):
    # a walk of n steps can stand on a vertex n hops out, at the cone's edge
    g = generate_long_range(LongRangeParams(256, 1.0, 3.0, seed=5))
    hops = g.distances_from(0)
    assert np.count_nonzero(hops <= n_steps) < g.n_vertices / 4
    grid = sorted({1, n_steps // 2 + 1, n_steps})
    radii = sorted({1, 2, n_steps})
    ref = _assert_matches_reference(g, 0, n_steps, 40, 6, radii, grid, "graph")
    if n_steps <= 3:
        assert np.any(ref["max_displacement"][:, -1] == n_steps)


@pytest.mark.parametrize("name,size", [("cycle", 12), ("binary_tree", 4)])
def test_simulation_on_an_untruncated_fixture_matches_reference(name, size):
    # the cone is the whole graph
    g = fixture(name, size)
    assert g.distances_from(0).max() < 40
    _assert_matches_reference(g, 0, 40, 30, 9, (2, 4), [1, 7, 40], "graph")


def test_exit_duality_per_trajectory(lrp128):
    stats = simulate(
        lrp128, 0, 64, 40, seed=11, radii=(3, 6), time_grid=(8, 16, 32, 64),
        metric="line",
    )
    for j, radius in enumerate(stats.radii):
        for k, t in enumerate(stats.time_grid):
            crossed = stats.max_displacement[:, k] >= radius
            exited = (~stats.censored[:, j]) & (stats.exit_time[:, j] <= t)
            assert np.array_equal(crossed, exited)


def test_range_statistics_match_replay(line64):
    stats = simulate(line64, 0, 24, 6, seed=2, time_grid=(24,), metric="line")
    dense = simulate(line64, 0, 24, 6, seed=2, time_grid=range(1, 25), metric="line")
    # the line walk's position is origin plus a +-1 step sum, so the distance
    # trace determines the visited set up to reflection
    for i in range(6):
        trace = dense.displacement[i]  # steps 1..24; step 0 is the origin
        assert np.all(np.abs(np.diff(trace, prepend=0)) == 1)
        assert stats.displacement[i, 0] == trace[-1]
        assert stats.max_displacement[i, 0] == trace.max()
        lo, hi = -trace.max(), trace.max()
        visited_sizes = stats.range_size[i, 0]
        assert visited_sizes <= hi - lo + 1
        assert stats.range_weight[i, 0] == pytest.approx(2.0 * visited_sizes)


def test_mean_exit_time_excludes_censored(line64):
    stats = simulate(line64, 0, 8, 32, seed=9, radii=(2, 8), metric="line")
    live = ~stats.censored[:, 0]
    assert stats.mean_exit_time(2) == pytest.approx(
        stats.exit_time[live, 0].mean()
    )
    if stats.censored[:, 1].all():
        with pytest.raises(InvalidArgumentError, match="censored"):
            stats.mean_exit_time(8)


def test_sampled_exit_time_agrees_with_green_value(line64):
    exact = mean_exit_time_exact(line64, 0, 4, metric="line")
    stats = simulate(line64, 0, 512, 400, seed=21, radii=(4,), metric="line")
    assert not stats.censored.any()
    sample = stats.exit_time[:, 0].astype(float)
    sigma = sample.std(ddof=1) / np.sqrt(sample.size)
    assert abs(sample.mean() - exact) < 4 * sigma


def test_return_frequency_tracks_kernel(line64):
    table = heat_kernel_exact(line64, 0, 16)
    expected = float(table.origin_series[16] * line64.measure[line64.index(0)])
    stats = simulate(line64, 0, 16, 4000, seed=13, time_grid=(16,), metric="line")
    freq = stats.return_frequency()
    sigma = np.sqrt(expected * (1 - expected) / 4000)
    assert abs(freq - expected) < 4 * sigma


def test_simulation_validates_arguments(line64):
    with pytest.raises(InvalidArgumentError):
        simulate(line64, 0, 0, 4, seed=0)
    with pytest.raises(InvalidArgumentError):
        simulate(line64, 0, 8, 0, seed=0)
    for bad in (0, 2.5, float("inf")):
        with pytest.raises(InvalidArgumentError):
            simulate(line64, 0, 8, 4, seed=0, radii=(bad,))
    with pytest.raises(InvalidArgumentError):
        simulate(line64, 0, 8, 4, seed=0, time_grid=(9,))
    for grid in ((2.5, 8), (0, 8), ()):
        with pytest.raises(InvalidArgumentError, match="time grid"):
            simulate(line64, 0, 8, 4, seed=0, time_grid=grid)
    with pytest.raises(InvalidArgumentError, match="n_steps"):
        simulate(line64, 0, 8.5, 4, seed=0)
    with pytest.raises(InvalidArgumentError, match="n_trajectories"):
        simulate(line64, 0, 8, 4.5, seed=0)
    stats = simulate(line64, 0, 64, 8, seed=0, radii=(4, 8))
    for bad in (5, 2.5, 0):
        with pytest.raises(InvalidArgumentError, match="radius"):
            stats.mean_exit_time(bad)
    assert stats.mean_exit_time(4.0) == stats.mean_exit_time(4)
