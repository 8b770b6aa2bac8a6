"""Dense brute-force references for small graphs.

Everything here trades speed for directness: dense matrices, one-shot
LAPACK solves, repeated full matrix-vector products.  Used by the test
suite to pin down expected values; none of the sparse factorizations,
residual checks or transition products in `resistance` or `walk` is
reused, so the two paths fail independently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError
from .graph import Graph

MAX_VERTICES = 200


def _guard(g: Graph) -> None:
    if g.n_vertices > MAX_VERTICES:
        raise InvalidArgumentError(
            f"oracle accepts at most {MAX_VERTICES} vertices, got {g.n_vertices}"
        )


def _dense_weights(g: Graph) -> np.ndarray:
    n = g.n_vertices
    W = np.zeros((n, n))
    for i in range(g.n_bonds):
        u, v, c = g.bond_u[i], g.bond_v[i], g.bond_c[i]
        W[u, v] += c
        W[v, u] += c
    return W


def dense_resistance(g: Graph, A: Sequence[int], B: Sequence[int]) -> float:
    """Effective resistance between vertex sets A and B by a dense solve."""
    _guard(g)
    ia = sorted(set(g.index(a) for a in A))
    ib = sorted(set(g.index(b) for b in B))
    if not ia or not ib or set(ia) & set(ib):
        raise InvalidArgumentError("A and B must be nonempty and disjoint")
    n = g.n_vertices
    W = _dense_weights(g)
    lap = np.diag(W.sum(axis=1)) - W
    f = np.zeros(n)
    f[ia] = 1.0
    interior = np.setdiff1d(np.arange(n), np.concatenate([ia, ib]))
    if interior.size:
        rhs = W[np.ix_(interior, ia)].sum(axis=1)
        f[interior] = np.linalg.solve(lap[np.ix_(interior, interior)], rhs)
    energy = float(f @ lap @ f)
    return 1.0 / energy


def dense_heat_kernel(g: Graph, origin: int, n_steps: int) -> np.ndarray:
    """Heat kernel table p_n(origin, .) for n = 0..n_steps.

    Row n holds p_n(origin, y) = P(X_n = y)/mu_y for every vertex y, in
    label order, computed by repeated dense transition products.
    """
    _guard(g)
    if n_steps < 0:
        raise InvalidArgumentError("n_steps must be nonnegative")
    W = _dense_weights(g)
    mu = W.sum(axis=1)
    P = W / mu[:, None]
    q = np.zeros(g.n_vertices)
    q[g.index(origin)] = 1.0
    rows = [q / mu]
    for _ in range(n_steps):
        q = q @ P
        rows.append(q / mu)
    return np.asarray(rows)


def dense_green(g: Graph, domain: Sequence[int], x: int) -> np.ndarray:
    """Killed Green kernel row g_B(x, .) over `domain`, via the fundamental matrix.

    Entry j is the expected number of visits to domain[j] before leaving
    the domain, started at x, divided by mu at domain[j].
    """
    _guard(g)
    idx = [g.index(d) for d in domain]
    if len(set(idx)) != len(idx):
        raise InvalidArgumentError("domain has repeated vertices")
    if g.index(x) not in idx:
        raise InvalidArgumentError("x must lie in the domain")
    if len(idx) == g.n_vertices:
        raise InvalidArgumentError("domain must be a proper subset")
    W = _dense_weights(g)
    mu = W.sum(axis=1)
    Q = (W / mu[:, None])[np.ix_(idx, idx)]
    fundamental = np.linalg.inv(np.eye(len(idx)) - Q)
    row = fundamental[idx.index(g.index(x))]
    return row / mu[idx]


def dense_mean_exit(g: Graph, domain: Sequence[int], x: int) -> float:
    """Expected exit time from `domain` started at x, via the fundamental matrix."""
    _guard(g)
    idx = [g.index(d) for d in domain]
    if g.index(x) not in idx:
        raise InvalidArgumentError("x must lie in the domain")
    if len(idx) == g.n_vertices:
        raise InvalidArgumentError("domain must be a proper subset")
    W = _dense_weights(g)
    mu = W.sum(axis=1)
    Q = (W / mu[:, None])[np.ix_(idx, idx)]
    times = np.linalg.solve(np.eye(len(idx)) - Q, np.ones(len(idx)))
    return float(times[idx.index(g.index(x))])
