"""Heat kernels and Monte Carlo statistics of the conductance walk.

The walk moves from x to y with probability conductance(x,y)/mu_x.  Heat
kernel values p_n(x,y) = P(X_n = y)/mu_y come from exact sparse
transition products restricted to the light cone: after t steps the walk
sits within t hops of its start, so with vertices sorted by hop distance
each step multiplies only the leading block it can reach.  A second,
killed product tracks the probability of having touched the window
boundary, which flags truncation effects; it starts at the first step
that can reach the boundary, and the contact is exactly 0 before it.
Monte Carlo trajectories draw from one dedicated stream per trajectory
index, so results do not depend on batching or scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.sparse import diags

from .errors import InvalidArgumentError, SolverError
from .generate import mix_seed
from .graph import Graph
from .resistance import green_row

CONTAMINATION_LEVEL = 1e-3
_CONSERVATION_TOL = 1e-9


@dataclass(frozen=True)
class HeatKernelTable:
    """Exact kernel series from one origin.

    origin_series[n] is p_n(origin, origin); boundary_contact[n] is the
    probability of having visited a window-edge vertex by step n.  It is
    exactly 0 for n below the hop distance from the origin to the window
    edge, and for graphs that are not truncations.  snapshots maps
    selected steps to the full row p_n(origin, .), aligned with labels.
    """

    origin: int
    horizon: int
    labels: np.ndarray
    origin_series: np.ndarray
    boundary_contact: np.ndarray
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def contaminated_from(self) -> int | None:
        """First step where boundary contact exceeds the reporting level."""
        hits = np.nonzero(self.boundary_contact > CONTAMINATION_LEVEL)[0]
        return int(hits[0]) if hits.size else None

    def even_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, p_2n(origin, origin)) pairs for n = 1..horizon//2."""
        ns = np.arange(1, self.horizon // 2 + 1)
        return ns, self.origin_series[2 * ns]

    def smoothed(self, n: int) -> float:
        """p_n + p_{n+1}, the parity-insensitive kernel value."""
        if not 0 <= n < self.horizon:
            raise InvalidArgumentError("n must lie in 0..horizon-1")
        return float(self.origin_series[n] + self.origin_series[n + 1])


def heat_kernel_exact(
    g: Graph,
    origin: int,
    n_steps: int,
    snapshots: Sequence[int] = (),
) -> HeatKernelTable:
    """Run n_steps exact transition products from `origin` on the light cone.

    After t steps the walk sits on vertices at most t hops from the origin,
    so with the vertices sorted by hop distance each step multiplies only
    the leading k x k block of the transition matrix, k >= |{hop <= t}|.
    The block is regrown by doubling k; once it holds every vertex the
    step is the full product.  The killed product starts at the first step
    that can reach the window edge: before it, boundary contact is exactly 0.
    """
    if n_steps < 0:
        raise InvalidArgumentError("n_steps must be nonnegative")
    wanted = set(int(s) for s in snapshots)
    bad = [s for s in wanted if not 0 <= s <= n_steps]
    if bad:
        raise InvalidArgumentError(f"snapshot steps {bad} outside 0..{n_steps}")
    adj = g.adjacency()
    n = g.n_vertices
    hops = g.distances_from(origin, "graph")
    order = np.argsort(hops, kind="stable")  # the origin comes first
    reach = np.cumsum(np.bincount(hops))  # reach[h] = |{hop <= h}|
    mu = g.measure[order]

    # window-edge vertices (the lowest and highest label, indices 0 and
    # n - 1), as ascending positions in hop order, and the first step at
    # which the walk can stand on one
    edge = np.zeros(0, dtype=np.int64)
    if g.truncated:
        edge = np.flatnonzero((order == 0) | (order == n - 1))
    edge_step = int(hops[order[edge[0]]]) if edge.size else n_steps + 1

    def label_order(x: np.ndarray) -> np.ndarray:
        full = np.zeros(n)
        full[order[: x.size]] = x / mu[: x.size]
        return full

    k = 1
    block = None
    q = np.ones(1)
    killed = None
    series = np.empty(n_steps + 1)
    contact = np.zeros(n_steps + 1)
    snaps: dict[int, np.ndarray] = {}
    for t in range(n_steps + 1):
        if t:
            need = int(reach[min(t, reach.size - 1)])
            if need > k:
                grown = min(n, max(need, 2 * k))
                cone = order[:grown]
                block = (adj[cone][:, cone] @ diags(1.0 / mu[:grown])).tocsr()
                q = np.concatenate([q, np.zeros(grown - k)])
                if killed is not None:
                    killed = np.concatenate([killed, np.zeros(grown - k)])
                k = grown
            q = block @ q
            total = q.sum()
            if abs(total - 1.0) > _CONSERVATION_TOL:
                raise SolverError(f"probability mass drifted to {total!r} at step {t}")
            if killed is not None:
                killed = block @ killed
        if t == edge_step:
            killed = q.copy()
        if killed is not None:
            killed[edge[edge < k]] = 0.0
            contact[t] = 1.0 - killed.sum()
        series[t] = q[0] / mu[0]
        if t in wanted:
            snaps[t] = label_order(q)
    return HeatKernelTable(int(origin), n_steps, g.labels, series, contact, snaps)


def mean_exit_time_exact(g: Graph, origin: int, radius: int, metric: str = "graph") -> float:
    """E[exit time from the ball of `radius`] via the killed Green row."""
    g.check_probe_radius(radius)
    ball = g.ball(origin, radius, metric)
    if ball.size == g.n_vertices:
        raise InvalidArgumentError(f"ball of radius {radius} covers the whole graph")
    row = green_row(g, ball, origin)
    return float(row.values @ g.measure[g.indices(row.domain)])


@dataclass(frozen=True)
class WalkStatistics:
    """Per-trajectory Monte Carlo statistics on one graph.

    Exit times are reported per tracked radius and capped at the horizon
    with `censored` set.  Grid columns follow `time_grid`.
    """

    origin: int
    n_steps: int
    metric: str
    seed: int
    radii: np.ndarray
    time_grid: np.ndarray
    exit_time: np.ndarray          # (n_traj, n_radii), horizon where censored
    censored: np.ndarray           # (n_traj, n_radii) bool
    displacement: np.ndarray       # (n_traj, n_grid) distance at grid steps
    max_displacement: np.ndarray   # (n_traj, n_grid) running max at grid steps
    range_weight: np.ndarray       # (n_traj, n_grid) measure of visited set
    range_size: np.ndarray         # (n_traj, n_grid) visited vertex count
    endpoint: np.ndarray           # (n_traj, n_grid) vertex labels
    step_displacement: np.ndarray | None = None  # (n_traj, n_steps+1) when kept

    @property
    def n_trajectories(self) -> int:
        return self.exit_time.shape[0]

    def mean_exit_time(self, radius: int) -> float:
        """Mean exit time over the trajectories that exited by the horizon."""
        j = int(np.nonzero(self.radii == radius)[0][0])
        live = ~self.censored[:, j]
        if not live.any():
            raise InvalidArgumentError(f"all trajectories censored at radius {radius}")
        return float(self.exit_time[live, j].mean())

    def return_frequency(self, grid_index: int = -1) -> float:
        """Fraction of trajectories sitting at the origin at a grid step."""
        return float((self.endpoint[:, grid_index] == self.origin).mean())


def simulate(
    g: Graph,
    origin: int,
    n_steps: int,
    n_trajectories: int,
    seed: int,
    radii: Sequence[int] = (),
    time_grid: Sequence[int] | None = None,
    metric: str = "graph",
    keep_steps: bool = False,
    chunk_size: int = 256,
) -> WalkStatistics:
    """Sample trajectories of the conductance walk.

    Trajectory i draws all its uniforms from the stream seeded by
    mix_seed(seed, i), so any batching gives identical paths.

    From x, a uniform u picks the bond of the merged adjacency whose
    cumulative conductance interval holds u * mu_x, mu being `g.measure`.
    Trajectories run `chunk_size` at a time, and each chunk records its
    vertex history.  The range statistics come from that history: the
    first visits of each trajectory, found with one scratch array over the
    vertices; the range weight is the sum of `g.measure` over them, added
    in time order.
    Memory is O(n_vertices + chunk_size * n_steps) on top of the
    per-trajectory outputs; nothing of size chunk_size * n_vertices is
    allocated.
    """
    if n_steps < 1 or n_trajectories < 1:
        raise InvalidArgumentError("n_steps and n_trajectories must be positive")
    radii_arr = np.asarray(sorted(int(R) for R in radii), dtype=np.int64)
    if np.any(radii_arr < 1):
        raise InvalidArgumentError("radii must be positive")
    if time_grid is None:
        grid = np.asarray([n_steps], dtype=np.int64)
    else:
        grid = np.asarray(sorted(int(t) for t in time_grid), dtype=np.int64)
        if grid.size == 0 or grid[0] < 1 or grid[-1] > n_steps:
            raise InvalidArgumentError("time grid must lie in 1..n_steps")

    adj = g.adjacency()
    # scipy may narrow CSR indices to int32, and indexing with int32 arrays
    # converts them to intp on every step
    indptr, indices = adj.indptr.astype(np.intp), adj.indices.astype(np.intp)
    edge_cum = np.concatenate([[0.0], np.cumsum(adj.data)])
    mu = g.measure
    dist = g.distances_from(origin, metric)
    oi = g.index(origin)
    n = g.n_vertices

    n_grid = grid.size
    # first_step[v] is the first step at which the current trajectory stood
    # on v, `never` when it has not; reset after each trajectory
    steps = np.arange(n_steps + 1)
    never = n_steps + 1
    first_step = np.full(n, never)
    exit_time = np.full((n_trajectories, radii_arr.size), n_steps, dtype=np.int64)
    censored = np.ones((n_trajectories, radii_arr.size), dtype=bool)
    displacement = np.empty((n_trajectories, n_grid), dtype=np.int64)
    max_displacement = np.empty((n_trajectories, n_grid), dtype=np.int64)
    range_weight = np.empty((n_trajectories, n_grid))
    range_size = np.empty((n_trajectories, n_grid), dtype=np.int64)
    endpoint = np.empty((n_trajectories, n_grid), dtype=np.int64)
    steps_kept = (
        np.empty((n_trajectories, n_steps + 1), dtype=np.int64) if keep_steps else None
    )

    for start in range(0, n_trajectories, chunk_size):
        stop = min(start + chunk_size, n_trajectories)
        m = stop - start
        uniforms = np.empty((m, n_steps))
        for i in range(m):
            stream = np.random.default_rng(mix_seed(seed, start + i))
            uniforms[i] = stream.random(n_steps)

        x = np.full(m, oi, dtype=np.int64)
        # vertex indices of each step; int32 halves the chunk's largest array
        x_hist = np.empty((m, n_steps + 1), dtype=np.int32)
        x_hist[:, 0] = oi
        for t in range(1, n_steps + 1):
            target = edge_cum[indptr[x]] + uniforms[:, t - 1] * mu[x]
            pos = np.searchsorted(edge_cum, target, side="right") - 1
            pos = np.clip(pos, indptr[x], indptr[x + 1] - 1)
            x = indices[pos]
            x_hist[:, t] = x
        d_hist = dist[x_hist]
        displacement[start:stop] = d_hist[:, grid]
        endpoint[start:stop] = g.labels[x_hist[:, grid]]
        for i, row in enumerate(x_hist, start):
            # steps of first visits, ascending; the origin's is step 0
            np.minimum.at(first_step, row, steps)
            fresh = np.flatnonzero(first_step[row] == steps)
            first_step[row] = never
            size = np.searchsorted(fresh, grid, side="right")
            range_size[i] = size
            # the measure of first visits added in time order, as the walk goes
            range_weight[i] = np.cumsum(mu[row[fresh]])[size - 1]
        running_max = np.maximum.accumulate(d_hist, axis=1)
        max_displacement[start:stop] = running_max[:, grid]
        for j, R in enumerate(radii_arr):
            hit = running_max >= R
            reached = hit[:, -1]
            first = np.argmax(hit, axis=1)
            exit_time[start:stop, j] = np.where(reached, first, n_steps)
            censored[start:stop, j] = ~reached
        if keep_steps:
            steps_kept[start:stop] = d_hist

    return WalkStatistics(
        origin=int(origin),
        n_steps=int(n_steps),
        metric=metric,
        seed=int(seed),
        radii=radii_arr,
        time_grid=grid,
        exit_time=exit_time,
        censored=censored,
        displacement=displacement,
        max_displacement=max_displacement,
        range_weight=range_weight,
        range_size=range_size,
        endpoint=endpoint,
        step_displacement=steps_kept,
    )
