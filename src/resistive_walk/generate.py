"""Random line-window generators, deterministic fixtures, and the model table.

`model_graph` is the one place that maps a model name (`MODELS`) to its
parameter checks, its generator and its window half-width; the config
checks, the pipeline and the CLI all ask it.

Window graphs live on labels -L..L with every nearest-neighbour bond
present at conductance 1.  Pairs at distance n >= 2 are bonded
independently with a model-specific probability, capped below 1 so the
Bernoulli draw is always proper.

The random stream is that of a plain loop over n = 2..2L drawing one
binomial bond count per distance and, when it is nonzero, the bond
positions with `choice`.  The generator draws the counts for a block of
distances in one array call.  Most counts are zero; at the first nonzero
entry j the bit-generator state saved before the block is restored and
entries 0..j are redrawn, so the stream stands exactly where the loop
would call `choice`.  The block doubles after each all-zero block and
starts small again after a hit.  The bonds reach `Graph` as arrays, in
the loop's order, through `Graph.from_arrays`.

The probabilities of all distances come as one read-only array from
`bond_probabilities`, bit for bit those of the scalar `bond_probability`.
The array depends on the window and its tail, not on the seed, so the
members of a run share one: the last table built is kept, and a call with
other parameters replaces it.  The polynomial tail maps `math.pow` over
the distances: it is the libm `pow` behind Python's float `**`, whereas
numpy's array `**` differs from it in the last ulp on some distances.
beta and the cap are then applied in numpy, whose multiply and minimum
round exactly as Python's do.  The exponential tail takes numpy's array
`exp`, which gives the bits of the scalar call; the tests pin both forms
to the scalar function on every distance of the shipped windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import repeat

import numpy as np

from .errors import InvalidArgumentError
from .graph import INT64, Graph

_MASK64 = (1 << 64) - 1

# Bernoulli probabilities are capped at 1 - 2^-32.
PROBABILITY_CAP = 1.0 - 2.0 ** -32

# The widest window whose 2L + 1 int64 labels fit in one addressable array.
MAX_HALF_WIDTH = (INT64.max // 8 - 1) // 2

# Distances per array binomial call in `_generate_window`.
_MIN_BLOCK = 16
_MAX_BLOCK = 1 << 16


def mix_seed(master_seed: int, index: int) -> int:
    """Derive the stream seed for ensemble member `index`.

    SplitMix64 finalizer applied to master_seed advanced by index+1
    increments of the golden-gamma constant.  The +1 keeps member 0 from
    reusing the raw master seed.
    """
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _check_window(half_width: int, seed: int) -> None:
    """The checks every window shares.  A window past `MAX_HALF_WIDTH` is refused
    before any array is made: near 2^62 numpy's `arange` comes back empty."""
    if half_width < 2:
        raise InvalidArgumentError("half_width must be at least 2")
    if half_width > MAX_HALF_WIDTH:
        raise MemoryError(f"a window of half_width {half_width} holds more labels "
                          f"than one 64-bit array can address")
    if not 0 <= seed <= _MASK64:
        raise InvalidArgumentError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class LongRangeParams:
    """Polynomial-tail window: P(bond at distance n) = min(beta * n^-s, cap)."""

    half_width: int
    beta: float
    tail_exponent: float
    seed: int

    def bond_probability(self, n: int) -> float:
        if n == 1:
            return 1.0
        return min(self.beta * float(n) ** -self.tail_exponent, PROBABILITY_CAP)

    def bond_probabilities(self) -> np.ndarray:
        """`bond_probability(n)` for n = 2..2L, bitwise, as one read-only array that
        every seed of the same (half_width, beta, tail_exponent) shares."""
        # a zero beta's sign is part of the key: == ignores it, the product keeps it
        return _shared_table(replace(self, seed=0), math.copysign(1.0, self.beta))

    def _probabilities(self) -> np.ndarray:
        n = range(2, 2 * self.half_width + 1)
        # math.pow is the libm pow behind Python's float `**`
        power = np.fromiter(map(math.pow, n, repeat(-self.tail_exponent)), float, len(n))
        return np.minimum(self.beta * power, PROBABILITY_CAP)

    def validate(self) -> None:
        _check_window(self.half_width, self.seed)
        if not self.beta >= 0:
            raise InvalidArgumentError("beta must be nonnegative")
        if not self.tail_exponent > 2:
            raise InvalidArgumentError("tail exponent (tail_exponent) must exceed 2")


@dataclass(frozen=True)
class ExpTailParams:
    """Exponential-tail window: P(bond at distance n) = min(exp(-rate*n), cap)."""

    half_width: int
    rate: float
    seed: int

    def bond_probability(self, n: int) -> float:
        if n == 1:
            return 1.0
        return min(float(np.exp(-self.rate * n)), PROBABILITY_CAP)

    def bond_probabilities(self) -> np.ndarray:
        """`bond_probability(n)` for n = 2..2L, bitwise, as one read-only array that
        every seed of the same (half_width, rate) shares."""
        return _shared_table(replace(self, seed=0))

    def _probabilities(self) -> np.ndarray:
        n = np.arange(2, 2 * self.half_width + 1, dtype=float)
        return np.minimum(np.exp(-self.rate * n), PROBABILITY_CAP)

    def validate(self) -> None:
        _check_window(self.half_width, self.seed)
        if not self.rate > 0:
            raise InvalidArgumentError("rate must be positive")


@lru_cache(maxsize=1)
def _shared_table(params: LongRangeParams | ExpTailParams, *key: float) -> np.ndarray:
    """The bond probabilities of `params`, whose seed is 0, made read-only; `key`
    holds what `params`' equality does not tell apart.  Only the last table is
    kept, so a run's members share it and memory holds at most one."""
    table = params._probabilities()
    table.flags.writeable = False
    return table


def _generate_window(params: LongRangeParams | ExpTailParams) -> Graph:
    """The window's graph.  The only window-length arrays it makes are the
    bond ends, handed to `Graph.from_arrays`; the shared probability table is
    read in slices, each block computes its own distances' slot counts, and
    the unit conductances go in as a view, not as an array of their own."""
    params.validate()
    L = params.half_width
    rng = np.random.default_rng(params.seed)
    # For each distance the bond count is Binomial over the available left
    # endpoints and positions are a uniform subset, which reproduces the
    # independent-Bernoulli law pair by pair.  Distance 2 + i has n_dist - i
    # slots.
    n_dist = 2 * L - 1
    p = params.bond_probabilities()
    u = [np.arange(-L, L)]
    v = [np.arange(-L + 1, L + 1)]
    i = 0
    block = _MIN_BLOCK
    while i < n_dist:
        stop = min(i + block, n_dist)
        state = rng.bit_generator.state
        hits = np.flatnonzero(rng.binomial(n_dist - np.arange(i, stop), p[i:stop]))
        if not hits.size:
            i = stop
            block = min(2 * block, _MAX_BLOCK)
            continue
        # rewind and redraw through the first hit, as the scalar loop would
        j = i + int(hits[0])
        rng.bit_generator.state = state
        k = int(rng.binomial(n_dist - np.arange(i, j + 1), p[i : j + 1])[-1])
        lefts = np.sort(rng.choice(n_dist - j, size=k, replace=False))
        u.append(lefts - L)
        v.append(lefts - L + j + 2)
        i = j + 1
        block = _MIN_BLOCK
    u = np.concatenate(u)
    # unit conductances as a read-only view; the graph makes its own copy
    return Graph.from_arrays(u, np.concatenate(v), np.broadcast_to(1.0, u.shape),
                             marked=0, truncated=True)


def generate_long_range(params: LongRangeParams) -> Graph:
    """Sample a polynomial-tail window; deterministic per seed."""
    return _generate_window(params)


def generate_exp_tail(params: ExpTailParams) -> Graph:
    """Sample an exponential-tail window; deterministic per seed."""
    return _generate_window(params)


# -- deterministic fixtures ------------------------------------------------


# Smallest and largest size of each fixture family; parallel_pair takes none.
# The largest hold about 2^24 vertices; binary_tree at 70 would hold 2^71 - 1.
FIXTURE_SIZES = {"parallel_pair": None, "path": (1, 1 << 24), "cycle": (3, 1 << 24),
                 "binary_tree": (1, 23), "ladder": (2, 1 << 23), "line": (2, 1 << 23)}


def check_fixture(name: str, size: int | None) -> None:
    """Refuse a family `fixture` does not know, or a size it cannot build."""
    if name not in FIXTURE_SIZES:
        raise InvalidArgumentError(
            f"unknown fixture {name!r}: fixture_name must be one of {', '.join(FIXTURE_SIZES)}"
        )
    sizes = FIXTURE_SIZES[name]
    if sizes is None:
        wanted = None if size is None else "no size"
    elif size is None or size < sizes[0]:
        wanted = f"a size of at least {sizes[0]}"
    else:
        wanted = f"a size of at most {sizes[1]}" if size > sizes[1] else None
    if wanted:
        raise InvalidArgumentError(f"fixture {name!r} takes {wanted} (fixture_size), got {size}")


def fixture(name: str, size: int | None = None) -> Graph:
    """Small named graphs used throughout the tests.

    path(n): n bonds on labels 0..n.  cycle(n): n >= 3 ring.  parallel_pair:
    two unit bonds between 0 and 1.  binary_tree(depth): complete tree,
    heap-ordered labels, root 0.  ladder(n): 2 x n grid.  line(L): pure
    nearest-neighbour window on -L..L.
    """
    check_fixture(name, size)
    if name == "parallel_pair":
        u, v = np.array([0, 0]), np.array([1, 1])
    elif name in ("path", "line"):
        u = np.arange(-size if name == "line" else 0, size)
        v = u + 1
    elif name == "cycle":
        u = np.arange(size)
        v = (u + 1) % size
    elif name == "binary_tree":
        # heap order: vertex i has children 2i+1 and 2i+2
        v = np.arange(1, 2 ** (size + 1) - 1)
        u = (v - 1) // 2
    else:  # ladder: rungs first, then the two rails interleaved rung by rung
        rails = np.arange(2 * size - 2)
        u = np.concatenate([np.arange(0, 2 * size, 2), rails])
        v = np.concatenate([np.arange(1, 2 * size, 2), rails + 2])
    return Graph.from_arrays(u, v, np.ones(len(u)), marked=0, truncated=name == "line")


# -- the model table --------------------------------------------------------


MODELS = ("lrp", "exp", "fixture")


def model_graph(model: str, seed: int, half_width: int, beta: float, tail_exponent: float,
                rate: float, fixture_name: str, fixture_size: int | None) -> tuple[partial, int]:
    """Check one model's parameters; return the call that builds its graph and the
    graph's window half-width, 0 for a fixture that is not a window.  A window
    reads the seed, half-width and its tail; a fixture its name and size."""
    if model == "lrp":
        params = LongRangeParams(half_width, beta, tail_exponent, seed)
    elif model == "exp":
        params = ExpTailParams(half_width, rate, seed)
    elif model == "fixture":
        check_fixture(fixture_name, fixture_size)
        window = fixture_size if fixture_name == "line" else 0
        return partial(fixture, fixture_name, fixture_size), window
    else:
        raise InvalidArgumentError(f"model must be one of {MODELS}, got {model!r}")
    params.validate()
    return partial(_generate_window, params), half_width
