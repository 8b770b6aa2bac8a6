import dataclasses

import numpy as np
import pytest

from resistive_walk import generate
from resistive_walk.errors import InvalidArgumentError
from resistive_walk.generate import (
    MAX_HALF_WIDTH,
    PROBABILITY_CAP,
    ExpTailParams,
    LongRangeParams,
    fixture,
    generate_exp_tail,
    generate_long_range,
    mix_seed,
)
from resistive_walk.graph import dumps_edge_list


def test_mix_seed_is_deterministic_and_spread():
    a = mix_seed(12345, 0)
    assert a == mix_seed(12345, 0)
    seen = {mix_seed(12345, i) for i in range(100)}
    assert len(seen) == 100
    assert all(0 <= s < 2**64 for s in seen)


def test_mix_seed_differs_across_masters():
    assert mix_seed(1, 0) != mix_seed(2, 0)


@pytest.mark.parametrize(
    "params, message",
    [
        (LongRangeParams(1, 1.0, 3.5, 0), "half_width"),
        (LongRangeParams(16, -1.0, 3.5, 0), "beta"),
        (LongRangeParams(16, 1.0, 2.0, 0), "tail exponent"),
        (LongRangeParams(16, 1.0, 3.5, -1), "seed"),
        (ExpTailParams(1, 1.0, 0), "half_width"),
        (ExpTailParams(16, 0.0, 0), "rate"),
        (ExpTailParams(16, 1.0, 2**64), "seed"),
        (LongRangeParams(16, float("nan"), 3.5, 0), "beta"),
    ],
)
def test_parameter_validation(params, message):
    with pytest.raises(InvalidArgumentError, match=message):
        params.validate()


@pytest.mark.parametrize("half_width", [MAX_HALF_WIDTH + 1, 2**62 - 1, 2**62 + 1])
@pytest.mark.parametrize("window", [
    lambda L: LongRangeParams(L, 1.0, 3.5, 0), lambda L: ExpTailParams(L, 1.0, 0)
], ids=["lrp", "exp"])
def test_windows_past_the_addressable_size_are_refused(window, half_width):
    window(MAX_HALF_WIDTH).validate()
    with pytest.raises(MemoryError, match=f"half_width {half_width} "):
        generate._generate_window(window(half_width))


def test_long_range_probability():
    p = LongRangeParams(16, 0.5, 3.0, 0)
    assert p.bond_probability(2) == pytest.approx(0.5 * 2.0**-3)
    assert p.bond_probability(5) < p.bond_probability(3)
    huge = LongRangeParams(16, 1e12, 2.5, 0)
    assert huge.bond_probability(2) == PROBABILITY_CAP


def test_exp_tail_probability():
    p = ExpTailParams(16, 1.5, 0)
    assert p.bond_probability(3) == pytest.approx(np.exp(-4.5))


@pytest.mark.parametrize("params", [LongRangeParams(8, 1.0, 3.5, 0), ExpTailParams(8, 1.0, 0)],
                         ids=["lrp", "exp"])
def test_bond_probability_takes_positive_integer_distances(params):
    assert params.bond_probability(1) == 1.0
    for distance in (0, -3, 2.5, float("nan")):
        with pytest.raises(InvalidArgumentError, match="distance must be a positive integer"):
            params.bond_probability(distance)


@pytest.mark.parametrize(
    "params",
    [
        # numpy's array `**` differs from Python's float power in the last
        # ulp on 27 794 of this window's 524 287 distances (x86-64, numpy 2.4)
        LongRangeParams(2**18, 1.0, 3.5, 0),
        LongRangeParams(4096, 1.0, 2.2, 0),
        LongRangeParams(8192, 1.0, 3.0, 0),
        LongRangeParams(8192, 0.37, 3.0, 0),
        LongRangeParams(64, 1e12, 2.5, 0),  # capped at the short distances
        ExpTailParams(8192, 1.0, 0),
        ExpTailParams(8192, 0.05, 0),
    ],
    ids=lambda p: (
        f"lrp-s{p.tail_exponent}-beta{p.beta:g}-L{p.half_width}"
        if isinstance(p, LongRangeParams) else f"exp-rate{p.rate}-L{p.half_width}"
    ),
)
def test_array_probabilities_are_the_scalar_bits(params):
    distances = range(2, 2 * params.half_width + 1)
    want = np.asarray([params.bond_probability(n) for n in distances])
    got = params.bond_probabilities()
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "params, other",
    [(LongRangeParams(4096, 1.0, 3.5, 0), LongRangeParams(4096, 1.0, 3.0, 0)),
     (LongRangeParams(2048, 0.0, 3.5, 0), LongRangeParams(2048, -0.0, 3.5, 0)),
     (ExpTailParams(4096, 0.5, 0), ExpTailParams(2048, 0.5, 0))],
    ids=["lrp", "signed-zero-beta", "exp"],
)
def test_probability_table_is_shared_read_only_and_the_scalar_bits(params, other):
    table = params.bond_probabilities()
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0.5
    # every seed of the same window and tail reads the same array
    assert dataclasses.replace(params, seed=12345).bond_probabilities() is table
    # other parameters replace it, with their own bits; the cache holds one table
    for p in (other, params):
        got = p.bond_probabilities()
        want = [p.bond_probability(n) for n in range(2, 2 * p.half_width + 1)]
        assert got.tobytes() == np.asarray(want).tobytes()
    assert generate._shared_table.cache_info().currsize == 1


@pytest.mark.parametrize(
    "params, other",
    [(LongRangeParams(600, 1.0, 3.5, 4), LongRangeParams(900, 1.0, 2.2, 4)),
     (ExpTailParams(600, 0.4, 4), LongRangeParams(600, 1.0, 2.5, 4))],
)
def test_window_after_another_tail_has_the_fresh_bytes(params, other):
    generate._shared_table.cache_clear()
    fresh = dumps_edge_list(generate._generate_window(params))
    generate._generate_window(other)
    assert dumps_edge_list(generate._generate_window(params)) == fresh
    assert dumps_edge_list(generate._generate_window(dataclasses.replace(params, seed=5))) \
        != fresh


_DEFAULT_RNG = np.random.default_rng


def _scalar_probability(params, n):
    """Bond probability at distance n >= 2 by Python float arithmetic."""
    if isinstance(params, LongRangeParams):
        return min(params.beta * float(n) ** -params.tail_exponent, PROBABILITY_CAP)
    return min(float(np.exp(-params.rate * n)), PROBABILITY_CAP)


def _scalar_loop_bonds(params):
    """Bonds of a window by one scalar binomial draw per distance, in bond order."""
    L = params.half_width
    rng = _DEFAULT_RNG(params.seed)
    bonds = [(x, x + 1) for x in range(-L, L)]
    for n in range(2, 2 * L + 1):
        m = 2 * L + 1 - n
        k = int(rng.binomial(m, _scalar_probability(params, n)))
        if k:
            lefts = np.sort(rng.choice(m, size=k, replace=False))
            bonds.extend((int(j) - L, int(j) - L + n) for j in lefts)
    return np.asarray(bonds, dtype=np.int64)


class _SpyRng:
    """A Generator that records the (slots, p, counts) of every binomial call."""

    def __init__(self, seed, calls):
        self._rng = _DEFAULT_RNG(seed)
        self.bit_generator = self._rng.bit_generator
        self._calls = calls

    def binomial(self, n, p):
        counts = self._rng.binomial(n, p)
        self._calls.append((np.array(n), np.array(p), np.array(counts)))
        return counts

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)


def _block_edge_hits(calls):
    """Which block positions the first nonzero counts fell on.

    A block draw whose first nonzero count is followed by a redraw from the
    block's first distance; "last" is a hit on a block's last entry, "first"
    a hit on the first entry of a block right after an all-zero block.
    """
    seen = set()
    prev_zero_end = None
    k = 0
    while k < len(calls):
        slots, _, counts = calls[k]
        hits = np.flatnonzero(counts)
        if not hits.size:
            prev_zero_end = slots[-1]
            k += 1
            continue
        j = int(hits[0])
        redraw = calls[k + 1][0]
        assert redraw[0] == slots[0] and redraw.size == j + 1
        if j == slots.size - 1 and j > 0:
            seen.add("last")
        if j == 0 and prev_zero_end == slots[0] + 1:
            seen.add("first")
        prev_zero_end = None
        k += 2
    return seen


@pytest.mark.parametrize(
    "params, edges",
    [
        (LongRangeParams(32, 1.0, 2.2, seed=11), {"last"}),
        (LongRangeParams(100, 1.0, 2.2, seed=7), {"first"}),
        (LongRangeParams(200, 1.0, 3.0, seed=22), {"last"}),
        (LongRangeParams(256, 1.0, 3.0, seed=8), {"first"}),
        (LongRangeParams(512, 1.0, 3.5, seed=28), {"first"}),
        (LongRangeParams(2048, 1.0, 3.5, seed=1), set()),
        (ExpTailParams(256, 1.0, seed=4), set()),
        (ExpTailParams(300, 0.2, seed=5), set()),
    ],
)
def test_blocked_draws_match_scalar_loop(monkeypatch, params, edges):
    calls = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _SpyRng(seed, calls))
    g = generate._generate_window(params)
    ref = _scalar_loop_bonds(params)
    assert np.array_equal(g.labels[g.bond_u], ref[:, 0])
    assert np.array_equal(g.labels[g.bond_v], ref[:, 1])
    assert np.array_equal(g.bond_c, np.ones(ref.shape[0]))
    assert edges <= _block_edge_hits(calls)
    # every distance was drawn, each with the scalar probability bit for bit
    L = params.half_width
    drawn = set()
    for slots, p, _ in calls:
        distances = 2 * L + 1 - slots
        scalar = np.array([_scalar_probability(params, int(n)) for n in distances])
        assert np.array_equal(p.view(np.uint64), scalar.view(np.uint64))
        assert p.tolist() == [params.bond_probability(int(n)) for n in distances]
        drawn.update(distances.tolist())
    assert drawn == set(range(2, 2 * L + 1))


@pytest.mark.parametrize(
    "params, block",
    [
        (LongRangeParams(96, 1.0, 2.2, seed=0), 2),
        (LongRangeParams(96, 1.0, 2.2, seed=1), 3),
        (LongRangeParams(96, 1.0, 2.2, seed=4), 5),
        (LongRangeParams(96, 1.0, 3.0, seed=1), 2),
        (LongRangeParams(96, 1.0, 3.0, seed=4), 3),
        (LongRangeParams(96, 1.0, 3.5, seed=19), 2),
        (ExpTailParams(96, 0.5, seed=11), 2),
    ],
)
def test_small_blocks_match_scalar_loop(monkeypatch, params, block):
    # fixed small blocks put hits on both block edges many times over
    monkeypatch.setattr(generate, "_MIN_BLOCK", block)
    monkeypatch.setattr(generate, "_MAX_BLOCK", block)
    calls = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _SpyRng(seed, calls))
    g = generate._generate_window(params)
    ref = _scalar_loop_bonds(params)
    assert np.array_equal(np.column_stack([g.labels[g.bond_u], g.labels[g.bond_v]]), ref)
    assert _block_edge_hits(calls) == {"first", "last"}


def test_generation_is_deterministic():
    params = LongRangeParams(64, 1.0, 3.5, seed=11)
    a = generate_long_range(params)
    b = generate_long_range(params)
    assert list(a.bonds()) == list(b.bonds())
    c = generate_long_range(LongRangeParams(64, 1.0, 3.5, seed=12))
    assert list(a.bonds()) != list(c.bonds())


def test_window_structure():
    g = generate_long_range(LongRangeParams(32, 1.0, 3.5, seed=3))
    assert g.marked == 0
    assert g.window == (-32, 32)
    assert g.truncated
    assert g.n_vertices == 65
    nearest = {(u, v) for u, v, _ in g.bonds() if v - u == 1}
    assert nearest == {(x, x + 1) for x in range(-32, 32)}
    assert all(c == 1.0 for _, _, c in g.bonds())
    assert all(v > u for u, v, _ in g.bonds())


def test_long_bond_frequency_matches_probability():
    params = [LongRangeParams(64, 1.0, 3.5, seed=s) for s in range(200)]
    count = 0
    slots = 0
    for p in params:
        g = generate_long_range(p)
        count += sum(1 for u, v, _ in g.bonds() if v - u == 2)
        slots += 127
    prob = LongRangeParams(64, 1.0, 3.5, 0).bond_probability(2)
    sigma = np.sqrt(slots * prob * (1 - prob))
    assert abs(count - slots * prob) < 4 * sigma


def test_exp_tail_generation():
    g = generate_exp_tail(ExpTailParams(64, 1.0, seed=5))
    assert g.truncated and g.window == (-64, 64)
    long_lengths = [v - u for u, v, _ in g.bonds() if v - u >= 2]
    assert all(length <= 10 for length in long_lengths)


@pytest.mark.parametrize(
    "name, size, n_vertices, n_bonds",
    [
        ("parallel_pair", None, 2, 2),
        ("path", 5, 6, 5),
        ("cycle", 6, 6, 6),
        ("ladder", 3, 6, 7),
        ("binary_tree", 3, 15, 14),
        ("line", 8, 17, 16),
    ],
)
def test_fixture_shapes(name, size, n_vertices, n_bonds):
    g = fixture(name, size)
    assert g.n_vertices == n_vertices
    assert g.n_bonds == n_bonds


def test_fixture_line_is_truncated():
    g = fixture("line", 8)
    assert g.truncated
    assert g.window == (-8, 8)
    assert g.marked == 0


def test_fixture_rejects_unknown_name():
    with pytest.raises(InvalidArgumentError, match="fixture"):
        fixture("torus", 4)


@pytest.mark.parametrize("size", [None, 0])
def test_fixture_checks_its_name_before_its_size(size):
    with pytest.raises(InvalidArgumentError, match="unknown fixture 'nope'"):
        fixture("nope", size)


@pytest.mark.parametrize(
    "name, size", [("cycle", 2), ("ladder", 1), ("line", 1), ("binary_tree", 70)]
)
def test_fixture_rejects_bad_size(name, size):
    with pytest.raises(InvalidArgumentError):
        fixture(name, size)
