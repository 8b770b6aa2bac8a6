"""Effective resistance, killed Green kernels, and line projections.

Every Dirichlet problem here -- the unit potential between two vertex
sets, a killed Green row, and the two-point resistances from the marked
vertex -- is a linear system in the Laplacian D - W restricted to the
free vertices.  One helper factors that restriction once with a sparse
LU decomposition and checks the relative residual of every solve against
1e-10.  A solve that misses it gets one step of iterative refinement; a
failed factorization or a residual still too large raises SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import diags
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import splu

from .errors import InvalidArgumentError, SolverError
from .graph import Graph

RESIDUAL_TOL = 1e-10
# unit right-hand sides per solve of pair resistances, so columns per residual
# check: bounds the temporaries of a blocked solve
_CHECK_COLUMNS = 8
# a pointwise target is skipped only when its path bound lies this far (relative)
# below the best computed ratio: far beyond LU rounding (about 1e-12), so a skipped
# target can neither be the maximum nor tie it
_BOUND_MARGIN = 1e-8


def _residual(lap, x: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """lap @ x - b and its largest relative column norm (NaN fails every check)."""
    r = lap @ x
    r -= b
    rr = np.einsum("ij,ij->j", r, r)
    bb = np.maximum(np.einsum("ij,ij->j", b, b), np.finfo(float).tiny)
    return r, float(np.sqrt(np.max(rr / bb)))


def _grounded_solver(
    g: Graph, free: np.ndarray
) -> Callable[[np.ndarray], tuple[np.ndarray, float, int]]:
    """Factor (D - W) restricted to the index set `free`; return a checked solve.

    The solve takes a right-hand side vector or column block and returns
    the solution, its largest relative residual and the number of solves
    with the factor: 2 if the refinement step was needed, else 1.  It checks
    all it solved with one residual; callers keep blocks narrow
    (`pair_resistance` passes at most `_CHECK_COLUMNS` columns).
    """
    lap = (diags(g.measure[free]) - g.adjacency()[free][:, free]).tocsc()
    try:
        lu = splu(lap)
    except RuntimeError as exc:
        raise SolverError(f"sparse LU factorization failed: {exc}") from exc

    def solve(rhs: np.ndarray) -> tuple[np.ndarray, float, int]:
        x = lu.solve(rhs)
        # column views, so that the refinement step updates x in place
        b, xb = rhs.reshape(rhs.shape[0], -1), x.reshape(x.shape[0], -1)
        r, residual = _residual(lap, xb, b)
        steps = 1
        if not residual <= RESIDUAL_TOL:
            xb -= lu.solve(r)
            _, residual = _residual(lap, xb, b)
            steps = 2
        if not residual <= RESIDUAL_TOL:
            raise SolverError(f"direct solve missed residual {RESIDUAL_TOL:g} (got {residual:g})")
        return x, residual, steps

    return solve


@dataclass(frozen=True)
class Potential:
    """Solved Dirichlet potential: 1 on the source set, 0 on the sink set.

    `iterations` counts the solves with the LU factor: 1 for the direct
    solve, 2 when a refinement step was needed.  `residual` is the
    measured relative residual of the result.
    """

    labels: np.ndarray
    values: np.ndarray
    energy: float
    iterations: int
    residual: float

    def value(self, label: int) -> float:
        return _value_at(self.labels, self.values, label, "the graph")


def _value_at(labels: np.ndarray, values: np.ndarray, label: int, where: str) -> float:
    """The entry of `values` at `label` of the sorted `labels`."""
    i = int(np.searchsorted(labels, label))
    if i >= labels.size or labels[i] != label:
        raise InvalidArgumentError(f"vertex {label} is not in {where}")
    return float(values[i])


def _set_masks(g: Graph, A: Sequence[int], B: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Vertex masks of A and B, checked to be nonempty and disjoint."""
    in_a = np.zeros(g.n_vertices, dtype=bool)
    in_b = np.zeros(g.n_vertices, dtype=bool)
    in_a[g.indices(A)] = True
    in_b[g.indices(B)] = True
    if not in_a.any() or not in_b.any():
        raise InvalidArgumentError("A and B must be nonempty")
    if np.any(in_a & in_b):
        raise InvalidArgumentError("A and B must be disjoint")
    return in_a, in_b


def dirichlet_potential(g: Graph, A: Sequence[int], B: Sequence[int]) -> Potential:
    """Unit-voltage potential between vertex sets A (held at 1) and B (at 0)."""
    in_a, in_b = _set_masks(g, A, B)
    f = in_a.astype(float)
    interior = np.flatnonzero(~(in_a | in_b))
    residual, steps = 0.0, 0
    if interior.size:
        coupling = g.adjacency()[interior][:, np.flatnonzero(in_a)]
        rhs = np.asarray(coupling.sum(axis=1)).ravel()
        f[interior], residual, steps = _grounded_solver(g, interior)(rhs)
    df = f[g.bond_u] - f[g.bond_v]
    energy = float(np.sum(g.bond_c * df * df))
    return Potential(g.labels, f, energy, steps, residual)


def effective_resistance(g: Graph, A: Sequence[int], B: Sequence[int]) -> float:
    """R_eff(A, B) = 1 / (Dirichlet energy of the unit-voltage potential)."""
    pot = dirichlet_potential(g, A, B)
    return 1.0 / pot.energy


@dataclass(frozen=True)
class GreenRow:
    """One row g_B(x, .) of the Green kernel killed outside a domain."""

    domain: np.ndarray
    x: int
    values: np.ndarray

    @property
    def diagonal(self) -> float:
        """g_B(x, x), which equals R_eff(x, complement of the domain)."""
        return self.value(self.x)

    def value(self, label: int) -> float:
        return _value_at(self.domain, self.values, label, "the domain")


def green_row(g: Graph, domain: Sequence[int], x: int) -> GreenRow:
    """Killed Green kernel row: solve (D - W)|_domain u = e_x.

    Entry y is the expected number of visits to y before the walk from x
    leaves the domain, per unit of mu_y.
    """
    idx = np.unique(g.indices(domain))
    if idx.size == g.n_vertices:
        raise InvalidArgumentError("domain must be a proper subset of the vertices")
    xi = g.index(x)
    pos = int(np.searchsorted(idx, xi))
    if pos >= idx.size or idx[pos] != xi:
        raise InvalidArgumentError("x must lie in the domain")
    rhs = np.zeros(idx.size)
    rhs[pos] = 1.0
    sol, _, _ = _grounded_solver(g, idx)(rhs)
    return GreenRow(g.labels[idx], int(x), sol)


# -- pairwise resistances from the origin ----------------------------------


class OriginResistanceCache:
    """Batched R_eff(marked, y) through one LU factorization of the grounded Laplacian.

    Grounding the marked vertex makes the Laplacian positive definite, and
    the diagonal of its inverse lists the two-point resistances to the
    ground.  One factorization serves every target, and each target costs
    one triangular solve.  The unit right-hand sides go through the factor
    `_CHECK_COLUMNS` (8) at a time, each block checked with one residual.
    A column's solution does not depend on the columns solved with it, so a
    target's value does not depend on the call it came in.  On a
    32k-vertex window an 8-column dense block is 2 MB and solved fastest
    of the widths 1 to 128; a 128-column block is 33.5 MB.
    """

    def __init__(self, g: Graph) -> None:
        self.graph = g
        self._ground = g.index(g.marked)
        self._keep = np.delete(np.arange(g.n_vertices), self._ground)
        self._solve = _grounded_solver(g, self._keep)

    def pair_resistance(self, labels: Sequence[int]) -> np.ndarray:
        """R_eff(marked, y) per label, in the given order; repeats are solved once."""
        targets = self.graph.indices(labels)
        values = np.zeros(self.graph.n_vertices)  # the ground's stays 0
        free = np.unique(targets[targets != self._ground])
        rows = np.searchsorted(self._keep, free)
        for start in range(0, free.size, _CHECK_COLUMNS):
            chunk = rows[start:start + _CHECK_COLUMNS]
            cols = np.arange(chunk.size)
            rhs = np.zeros((self._keep.size, chunk.size))
            rhs[chunk, cols] = 1.0
            sols, _, _ = self._solve(rhs)
            values[free[start:start + _CHECK_COLUMNS]] = sols[chunk, cols]
        return values[targets]


def _path_resistance_bound(g: Graph) -> np.ndarray:
    """Resistance of the shortest path from the marked vertex, per label.

    Bonds are lengths 1/c of the merged adjacency.  By Rayleigh
    monotonicity (cutting every bond off one path can only raise the
    resistance) this bounds R_eff(marked, y) from above for any
    conductances, and it is exact on trees.
    """
    lengths = g.adjacency().copy()
    np.reciprocal(lengths.data, out=lengths.data)
    return dijkstra(lengths, indices=g.index(g.marked))


def max_pointwise_ratios(
    g: Graph,
    radii: Sequence[int],
    metric: str = "line",
    resistance_growth: Callable[[float], float] | None = None,
    factor: Callable[[Graph], OriginResistanceCache] = OriginResistanceCache,
) -> list[tuple[float, int | None]]:
    """Per radius R: the worst pointwise ratio in the ball and its witness.

    The ratio is max over y != marked with d(marked, y) < R of
    R_eff(marked, y) / r(d(marked, y)) for the growth r (identity when
    omitted).  Each radius must pass `Graph.check_ball` about the marked
    vertex.  Only targets a shortest-path bound cannot rule out are
    solved, all through the `pair_resistance` of one `factor(g)`:

    - the path resistance ub(y) >= R_eff(marked, y) bounds each ratio;
    - first the `_CHECK_COLUMNS` (8) targets of highest bound ratio in
      each ball are solved;
    - then every target y whose bound ratio ub(y) / r(d) reaches
      (1 - 1e-8) times the best computed ratio in the smallest ball that
      holds y.

    A skipped target's ratio lies below that best ratio by far more than
    LU rounding, so the result is the scan of every ball label: the
    witness is the first label, in label order, whose computed ratio is
    the largest.  Exact ties are not resolved by that order: when both
    nearest-neighbour bonds of the marked vertex are cut edges,
    R_eff(marked, +-1) = 1 exactly, yet the two computed values differ by
    LU rounding (about 1e-13), and the rounding picks the witness.  A ball
    holding only the marked vertex gives (0.0, None), and no radii give an
    empty list; nothing is factored unless a ball holds a target.
    """
    radii = [g.check_ball(g.marked, R, metric) for R in radii]
    if not radii:
        return []
    dist = g.distances_from(g.marked, metric)
    sel = (dist < max(radii)) & (g.labels != g.marked)
    if not sel.any():
        return [(0.0, None) for _ in radii]
    cache = factor(g)
    labels, d = g.labels[sel], dist[sel]
    r_fun = resistance_growth if resistance_growth is not None else float
    denom = np.asarray([r_fun(float(x)) for x in d])
    bound = _path_resistance_bound(g)[sel] / denom
    # shell[i]: the smallest radius, among the distinct sorted ones, whose ball holds label i
    steps = np.unique(np.asarray(radii))
    shell = np.searchsorted(steps, d, side="right")
    ratios = np.full(labels.size, -np.inf)

    def solve(mask: np.ndarray) -> None:
        if mask.any():
            ratios[mask] = cache.pair_resistance(labels[mask]) / denom[mask]

    first = np.zeros(labels.size, dtype=bool)
    for R in steps:
        ball = np.flatnonzero(d < R)
        first[ball[np.argsort(-bound[ball], kind="stable")[:_CHECK_COLUMNS]]] = True
    solve(first)
    best = np.full(steps.size, -np.inf)
    np.maximum.at(best, shell[first], ratios[first])
    best = np.maximum.accumulate(best)
    # a NaN bound is never ruled out
    solve(~first & ~(bound < best[shell] * (1.0 - _BOUND_MARGIN)))

    out: list[tuple[float, int | None]] = []
    for R in radii:
        inside = d < R
        if inside.any():
            k = int(np.argmax(np.where(inside, ratios, -np.inf)))
            out.append((float(ratios[k]), int(labels[k])))
        else:
            out.append((0.0, None))
    return out


# -- long-bond projection ---------------------------------------------------


@dataclass(frozen=True)
class ProjectedLine:
    """One-sided projection of a line window onto unit segments.

    conductances[i-1] is the merged conductance across [i-1, i] (positions
    relative to the marked vertex, mirrored when side is -1): every bond
    spanning the segment contributes conductance times length.
    """

    side: int
    conductances: np.ndarray

    def resistance(self, distance: int) -> float:
        """Series resistance of the first `distance` segments."""
        if distance < 1 or distance > self.conductances.size:
            raise InvalidArgumentError(
                f"distance must lie in 1..{self.conductances.size}"
            )
        return float(np.sum(1.0 / self.conductances[:distance]))


def project_long_bonds(g: Graph, side: int = 1) -> ProjectedLine:
    """Collapse a line window onto the segments on one side of the marked vertex.

    Each bond is cut into unit-length pieces of conductance
    conductance * length and the pieces across one segment merge in
    parallel, which can only lower resistances; the result lower-bounds
    the true one-sided resistance.
    """
    if side not in (+1, -1):
        raise InvalidArgumentError("side must be +1 or -1")
    if not g.is_line_labeled():
        raise InvalidArgumentError("projection requires contiguous integer labels")
    o = g.marked
    lo, hi = int(g.labels[0]), int(g.labels[-1])
    extent = (hi - o) if side == 1 else (o - lo)
    if extent < 1:
        raise InvalidArgumentError("no segments on the requested side")
    accum = np.zeros(extent + 1)
    u_lab = g.labels[g.bond_u]
    v_lab = g.labels[g.bond_v]
    left = np.minimum(u_lab, v_lab)
    right = np.maximum(u_lab, v_lab)
    if side == 1:
        first = np.maximum(left - o + 1, 1)
        last = np.minimum(right - o, extent)
    else:
        first = np.maximum(o - right + 1, 1)
        last = np.minimum(o - left, extent)
    weight = g.bond_c * (right - left)
    live = first <= last
    np.add.at(accum, first[live] - 1, weight[live])
    np.add.at(accum, last[live], -weight[live])
    conductances = np.cumsum(accum[:-1])
    if np.any(conductances <= 0):
        raise InvalidArgumentError("a segment has no crossing bond")
    return ProjectedLine(side, conductances)


def projected_complement_resistance(g: Graph, radius: int) -> float:
    """Two-sided projected lower bound for R_eff(marked, outside the ball).

    The two one-sided projected lines meet only at the marked vertex, so
    their resistances to distance `radius` combine in parallel.
    """
    plus = project_long_bonds(g, side=1)
    minus = project_long_bonds(g, side=-1)
    return 1.0 / (1.0 / plus.resistance(radius) + 1.0 / minus.resistance(radius))
