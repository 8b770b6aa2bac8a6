"""End-to-end acceptance suite.

Each test asserts one advertised guarantee of the package at its stated
tolerance, so `pytest -v` gives one pass/fail line per guarantee.  The
heavy ensemble presets run once per session and are shared.
"""

import math
import time

import numpy as np
import pytest

from resistive_walk.config import load_preset, parse_config
from resistive_walk.generate import (
    LongRangeParams,
    fixture,
    generate_long_range,
    mix_seed,
)
from resistive_walk.graph import Graph
from resistive_walk.oracle import dense_heat_kernel, dense_mean_exit, dense_resistance
from resistive_walk.pipeline import run
from resistive_walk.resistance import (
    effective_resistance,
    green_row,
    project_long_bonds,
)
from resistive_walk.scaling import failure_decay_fit
from resistive_walk.walk import heat_kernel_exact, mean_exit_time_exact, simulate

IDENTITY_RTOL = 1e-8
STRICT_SLACK = 1e-12


def random_fixture(rng, max_vertices=64, min_vertices=2):
    """Random connected graph: a uniform-attachment tree plus extra bonds."""
    n = int(rng.integers(min_vertices, max_vertices + 1))
    bonds = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        bonds.append((u, v, float(rng.uniform(1.0, 2.5))))
    for _ in range(int(rng.integers(0, n // 2 + 1))):
        u, v = (int(w) for w in rng.choice(n, size=2, replace=False))
        bonds.append((min(u, v), max(u, v), float(rng.uniform(1.0, 2.5))))
    return Graph(bonds, marked=0)


def _split_labels(rng, g, n_source, n_target, spare=0):
    """Disjoint random label sets (source, target, leftovers)."""
    perm = rng.permutation(g.n_vertices)
    labels = g.labels[perm]
    a = [int(x) for x in labels[:n_source]]
    b = [int(x) for x in labels[n_source : n_source + n_target]]
    rest = [int(x) for x in labels[n_source + n_target :]]
    assert len(rest) >= spare
    return a, b, rest


@pytest.fixture(scope="module")
def lrp_record(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("acceptance") / "lrp-s3.5"
    return run(load_preset("lrp-s3.5"), outdir)


@pytest.fixture(scope="module")
def exp_record(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("acceptance") / "exp-c1"
    return run(load_preset("exp-c1"), outdir)


def test_oracle_equivalence_on_random_fixtures():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(200):
        g = random_fixture(rng)
        n = g.n_vertices

        n_source = min(1 + int(rng.integers(0, 3)), max(1, n // 4))
        n_target = min(1 + int(rng.integers(0, 3)), max(1, n - n_source - 1))
        if n_source + n_target >= n:
            n_source = n_target = 1
        sources, targets, rest = _split_labels(rng, g, n_source, n_target)
        r_main = effective_resistance(g, sources, targets)
        r_dense = dense_resistance(g, sources, targets)
        assert r_main == pytest.approx(r_dense, rel=IDENTITY_RTOL)

        origin = int(rng.choice(g.labels))
        steps = int(rng.integers(3, 13))
        table = heat_kernel_exact(g, origin, steps, snapshots=(steps,))
        dense = dense_heat_kernel(g, origin, steps)
        oi = g.index(origin)
        np.testing.assert_allclose(
            table.origin_series, dense[:, oi], rtol=IDENTITY_RTOL, atol=1e-12
        )
        np.testing.assert_allclose(
            table.snapshots[steps], dense[steps], rtol=IDENTITY_RTOL, atol=1e-12
        )

        dist = g.distances_from(origin)
        radius = int(rng.integers(1, int(dist.max()) + 1))
        t_main = mean_exit_time_exact(g, origin, radius)
        t_dense = dense_mean_exit(g, [int(x) for x in g.ball(origin, radius)], origin)
        assert t_main == pytest.approx(t_dense, rel=IDENTITY_RTOL)
    assert time.monotonic() - started < 60.0


def test_electrical_identities():
    started = time.monotonic()
    rng = np.random.default_rng(202)

    # Green diagonal equals the resistance to the domain complement, and
    # the measure-weighted Green row sums to the mean exit time, from any
    # start inside the domain.
    for _ in range(60):
        g = random_fixture(rng, min_vertices=3)
        origin = int(rng.choice(g.labels))
        dist = g.distances_from(origin)
        radius = int(rng.integers(1, int(dist.max()) + 1))
        ball = [int(x) for x in g.ball(origin, radius)]
        inside = set(ball)
        outside = [int(x) for x in g.labels if int(x) not in inside]
        z = int(rng.choice(ball))
        row = green_row(g, ball, z)
        assert row.diagonal == pytest.approx(
            effective_resistance(g, [z], outside), rel=IDENTITY_RTOL
        )
        mu = g.measure[g.indices(row.domain)]
        assert float(row.values @ mu) == pytest.approx(
            dense_mean_exit(g, ball, z), rel=IDENTITY_RTOL
        )

    # Triangle inequality over 1000 sampled triples.
    triples = 0
    while triples < 1000:
        g = random_fixture(rng, min_vertices=3)
        pairs: dict[tuple[int, int], float] = {}

        def pair_resistance(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in pairs:
                pairs[key] = effective_resistance(g, [key[0]], [key[1]])
            return pairs[key]

        for _ in range(25):
            x, y, z = (int(w) for w in rng.choice(g.labels, size=3, replace=False))
            assert pair_resistance(x, z) <= (
                pair_resistance(x, y) + pair_resistance(y, z) + STRICT_SLACK
            )
            triples += 1
            if triples == 1000:
                break

    # Adding a bond never increases resistance (100 perturbed fixtures).
    for _ in range(100):
        g = random_fixture(rng, min_vertices=4)
        sources, targets, _ = _split_labels(rng, g, 1, 1)
        before = effective_resistance(g, sources, targets)
        u, v = (int(w) for w in rng.choice(g.labels, size=2, replace=False))
        perturbed = g.with_bond(u, v, float(rng.uniform(1.0, 2.5)))
        after = effective_resistance(perturbed, sources, targets)
        assert after <= before + STRICT_SLACK

    # The projected chain lower-bounds the one-sided resistance on 100
    # long-range samples.
    for seed in range(100):
        g = generate_long_range(LongRangeParams(64, 1.0, 3.5, seed=seed))
        chain = project_long_bonds(g, side=1)
        for radius in (8, 16, 32):
            far = [int(x) for x in g.labels if x >= radius]
            assert chain.resistance(radius) <= (
                effective_resistance(g, [0], far) + STRICT_SLACK
            )
    assert time.monotonic() - started < 120.0


def test_long_range_exponents(lrp_record):
    assert lrp_record.wallclock_seconds < 1800.0
    summary = lrp_record.summary
    for key in ("fits_spectral", "fits_exit", "fits_range", "fits_displacement"):
        assert "value" in summary[key], summary[key]
    assert 0.85 <= summary["fits_spectral"]["value"] <= 1.15
    assert 1.8 <= summary["fits_exit"]["value"] <= 2.2
    assert 0.4 <= summary["fits_range"]["value"] <= 0.6
    assert 0.4 <= summary["fits_displacement"]["value"] <= 0.6


def test_tolerance_failure_decay(lrp_record):
    good = lrp_record.summary["goodscale"]
    lambdas = good["tolerances"]
    assert lambdas[0] == 2.0 and lambdas[-1] == 256.0
    for radius in (64, 128, 256):
        fractions = good["failure_fractions"][str(radius)]
        assert all(
            a >= b - STRICT_SLACK for a, b in zip(fractions, fractions[1:])
        ), f"failure fractions not monotone at R={radius}: {fractions}"
        assert fractions[-1] == 0.0
        rate = good["decay"][str(radius)]["rate"]
        assert math.isfinite(rate) and rate > 0.0, (radius, rate)


def test_exp_tail_margin_over_polynomial_model(lrp_record, exp_record):
    # The exponential-tail preset must beat the power-law decay model
    # fitted to the long-range ensemble by a margin that grows along the
    # tolerance grid.  Fractions below 1/(2*ensemble) are unresolvable, so
    # both curves share the floor convention of failure_decay_fit.
    assert exp_record.wallclock_seconds < 1200.0
    lrp_good = lrp_record.summary["goodscale"]
    exp_good = exp_record.summary["goodscale"]
    assert lrp_good["tolerances"] == exp_good["tolerances"]
    lambdas = lrp_good["tolerances"]
    for radius in (64, 128, 256):
        model = failure_decay_fit(
            lambdas,
            lrp_good["failure_fractions"][str(radius)],
            lrp_record.summary["ensemble"],
        )
        observed = failure_decay_fit(
            lambdas,
            exp_good["failure_fractions"][str(radius)],
            exp_record.summary["ensemble"],
        )
        slope, intercept = np.polyfit(
            np.log(model.lambdas), np.log(model.fractions), 1
        )
        exp_points = dict(zip(observed.lambdas, observed.fractions))
        shared = [float(lam) for lam in model.lambdas if lam in exp_points]
        assert len(shared) >= 2, f"no shared resolvable tolerances at R={radius}"
        margins = [
            float(-math.log(exp_points[lam]) + intercept + slope * math.log(lam))
            for lam in shared
        ]
        assert all(
            b > a for a, b in zip(margins, margins[1:])
        ), f"margin not growing at R={radius}: lambdas={shared} margins={margins}"


def test_annealed_ratio_spread(lrp_record):
    series = lrp_record.summary["series"]

    def top_decade_spread(xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        vals = ys[xs >= xs.max() / 10.0]
        assert vals.size >= 2 and np.all(vals > 0)
        return float(vals.max() / vals.min())

    grid_r = series["radius_grid"]
    assert top_decade_spread(grid_r, series["exit_ratio"]) < 3.0
    assert top_decade_spread(grid_r, series["resistance_volume_ratio"]) < 3.0
    assert top_decade_spread(series["m_grid"], series["kernel_ratio"]) < 3.0
    assert top_decade_spread(series["time_grid"], series["displacement_ratio"]) < 3.0


def _mc_hits_first(g, start, targets, others, n_walkers, seed):
    """Fraction of walkers reaching `targets` strictly before `others`."""
    adj = g.adjacency()
    indptr, indices, weights = adj.indptr, adj.indices, adj.data
    n = g.n_vertices
    cum = np.zeros((n, n))
    for i in range(n):
        row = np.zeros(n)
        row[indices[indptr[i] : indptr[i + 1]]] = weights[indptr[i] : indptr[i + 1]]
        cum[i] = np.cumsum(row / row.sum())
    in_target = np.zeros(n, dtype=bool)
    in_target[g.indices(targets)] = True
    in_other = np.zeros(n, dtype=bool)
    in_other[g.indices(others)] = True

    rng = np.random.default_rng(seed)
    state = np.full(n_walkers, g.index(start), dtype=np.int64)
    hit = np.zeros(n_walkers, dtype=bool)
    active = np.ones(n_walkers, dtype=bool)
    for _ in range(200_000):
        live = np.nonzero(active)[0]
        if live.size == 0:
            break
        u = rng.random(live.size)
        nxt = (cum[state[live]] <= u[:, None]).sum(axis=1)
        state[live] = np.minimum(nxt, n - 1)
        arrived_target = active & in_target[state]
        arrived_other = active & in_other[state]
        hit |= arrived_target
        active &= ~(arrived_target | arrived_other)
    assert not active.any(), "walkers failed to absorb"
    return float(hit.mean())


def test_walk_laws():
    started = time.monotonic()
    rng = np.random.default_rng(606)

    # Conservation, kernel symmetry, and even-step monotonicity on a
    # spread of graph shapes.
    graphs = [
        fixture("path", 32),
        fixture("cycle", 24),
        fixture("ladder", 12),
        fixture("binary_tree", 4),
        generate_long_range(LongRangeParams(96, 1.0, 3.5, seed=5)),
    ]
    graphs += [random_fixture(rng, min_vertices=4) for _ in range(3)]
    for g in graphs:
        steps = 64
        origin = g.marked
        other = int(rng.choice(g.labels))
        table = heat_kernel_exact(g, origin, steps, snapshots=(steps // 2, steps))
        for s, snap in table.snapshots.items():
            assert float(snap @ g.measure) == pytest.approx(1.0, abs=1e-9)
        _, p2 = table.even_series()
        assert np.all(np.diff(p2) <= STRICT_SLACK)
        mirror = heat_kernel_exact(g, other, steps, snapshots=(steps,))
        p_xy = float(table.snapshots[steps][g.index(other)])
        p_yx = float(mirror.snapshots[steps][g.index(origin)])
        assert p_xy == pytest.approx(p_yx, rel=1e-9, abs=1e-15)

    # Exit-time duality recomputed from raw trajectory displacements.
    g = generate_long_range(LongRangeParams(256, 1.0, 3.5, seed=9))
    stats = simulate(
        g,
        0,
        512,
        128,
        seed=31,
        radii=(4, 8, 16, 32),
        time_grid=(512,),
        metric="line",
        keep_steps=True,
    )
    running = np.maximum.accumulate(stats.step_displacement, axis=1)
    for j, radius in enumerate(stats.radii):
        reached = running >= radius
        exited = ~stats.censored[:, j]
        np.testing.assert_array_equal(exited, reached.any(axis=1))
        first = np.argmax(reached, axis=1)
        np.testing.assert_array_equal(first[exited], stats.exit_time[exited, j])
        for n in (1, 7, 64, 333, 512):
            np.testing.assert_array_equal(
                reached[:, n], exited & (stats.exit_time[:, j] <= n)
            )

    # P(X_n in B)^2 <= p_2n(0,0) V(B) on 100 sampled (n, B).
    g = generate_long_range(LongRangeParams(128, 1.0, 3.5, seed=12))
    sample_ns = sorted(set(int(v) for v in rng.integers(1, 129, size=40)))
    table = heat_kernel_exact(g, 0, 256, snapshots=sample_ns)
    mu = g.measure
    for _ in range(100):
        n = sample_ns[int(rng.integers(0, len(sample_ns)))]
        center = int(rng.choice(g.labels))
        idx = g.indices(g.ball(center, int(rng.integers(1, 17)), "line"))
        prob = float(table.snapshots[n][idx] @ mu[idx])
        assert prob * prob <= (
            float(table.origin_series[2 * n]) * float(mu[idx].sum()) + STRICT_SLACK
        )

    # Hitting-probability bound by the resistance ratio, within Monte
    # Carlo error, on 50 configurations.
    n_walkers = 400
    for k in range(50):
        g = random_fixture(rng, max_vertices=24, min_vertices=6)
        n_target = 1 + int(rng.integers(0, 2))
        n_other = 1 + int(rng.integers(0, 2))
        targets, others, rest = _split_labels(rng, g, n_target, n_other, spare=1)
        start = rest[0]
        bound = effective_resistance(g, [start], others) / effective_resistance(
            g, [start], targets
        )
        p_hat = _mc_hits_first(g, start, targets, others, n_walkers, mix_seed(606, k))
        sigma = math.sqrt(p_hat * (1.0 - p_hat) / n_walkers)
        assert p_hat <= bound + 3.0 * sigma + 3.0 / (2 * n_walkers), (
            k,
            p_hat,
            bound,
        )
    assert time.monotonic() - started < 300.0


def test_worker_count_determinism(tmp_path_factory, mini_config_text):
    base = tmp_path_factory.mktemp("determinism")

    def assert_identical(left, right):
        names = sorted(p.name for p in (left / "observables").glob("*.csv"))
        assert names == sorted(p.name for p in (right / "observables").glob("*.csv"))
        assert names
        for name in names:
            left_bytes = (left / "observables" / name).read_bytes()
            assert left_bytes == (right / "observables" / name).read_bytes(), name
        assert (left / "summary.json").read_bytes() == (
            right / "summary.json"
        ).read_bytes()

    line = load_preset("line-sanity")
    serial = run(line, base / "line-serial", workers=1)
    pooled = run(line, base / "line-pooled", workers=2)
    assert_identical(serial.path, pooled.path)

    lrp = parse_config(mini_config_text)
    serial = run(lrp, base / "lrp-serial", workers=1)
    pooled = run(lrp, base / "lrp-pooled", workers=3)
    assert_identical(serial.path, pooled.path)
