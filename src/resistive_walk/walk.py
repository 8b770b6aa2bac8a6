"""Heat kernels and Monte Carlo statistics of the conductance walk.

The walk moves from x to y with probability conductance(x,y)/mu_x.  After t
steps it sits within t hops of its start: `_light_cone` lists that cone in
hop order with reach[t], the count within t hops, and the exact kernel and
the Monte Carlo walk both work on it alone.  Heat kernel values
p_n(x,y) = P(X_n = y)/mu_y come from exact sparse transition products: the
hop-ordered transition matrix over the cone is built once, step t multiplies
its leading block, sliced to hold the first reach[t] vertices, and every sum
runs over that reach[t] prefix.  The return probabilities need only half the
horizon: the walk is reversible, so
p_{s+t}(o,o) = sum_y p_s(o,y) p_t(o,y) mu_y, and in particular
p_{2m}(o,o) = sum_y p_m(o,y)^2 mu_y, the identity that on-diagonal heat
kernel upper bounds start from (Barlow, Coulhon & Kumagai, CPAM 2005).  A
second, killed product tracks the probability of having touched the window
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
from .graph import Graph, check_int, check_radius
from .resistance import green_row

CONTAMINATION_LEVEL = 1e-3
_CONSERVATION_TOL = 1e-9
# trajectories simulated together; each chunk holds its vertex history
_CHUNK_SIZE = 256
# bonds a row of the walk's step table holds: the 8 bounds between them compare
# into the 8 bytes of one uint64; a step from a vertex with more bonds (a hub)
# searches the global cumulative conductances instead
_TABLE_BONDS = 9


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
        n = check_int(n, "n", 0, self.horizon - 1)
        return float(self.origin_series[n] + self.origin_series[n + 1])

    def row(self, n: int) -> tuple[float, float, float]:
        """(p_n, p_n + p_{n+1}, boundary contact at n): one row of the kernel tables."""
        smoothed = self.smoothed(n)  # checks n before the other reads
        return float(self.origin_series[n]), smoothed, float(self.boundary_contact[n])


def _light_cone(g: Graph, origin: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(cone, reach): the vertex indices within `horizon` hops of `origin` in
    stable hop order (the origin first), and reach[h] = |{hop <= h}| for
    h = 0..horizon, from the cached `g.distances_from(origin, "graph")`."""
    hops = g.distances_from(origin, "graph")
    cone = np.flatnonzero(hops <= horizon)
    cone_hops = hops[cone]
    cone = cone[np.argsort(cone_hops, kind="stable")]
    return cone, np.cumsum(np.bincount(cone_hops, minlength=horizon + 1))


def heat_kernel_exact(
    g: Graph,
    origin: int,
    n_steps: int,
    snapshots: Sequence[int] = (),
) -> HeatKernelTable:
    """Exact kernel series from `origin` to n_steps, by products on the light cone.

    The distribution q_m = P(X_m = .) runs only to m = ceil(n_steps / 2):
    the walk is reversible, so p_{2m}(o, o) = sum_y q_m(y)^2 / mu_y and
    p_{2m-1}(o, o) = sum_y q_{m-1}(y) q_m(y) / mu_y.  q runs further only
    to the latest requested snapshot and to the first step that can reach
    the window edge.  The killed product starts at that step and runs to
    n_steps: before it, boundary contact is exactly 0.

    The hop-ordered transition matrix over the light cone of the last step
    is built once.  Step t multiplies its leading k x k block, k >= reach[t],
    sliced anew each time k doubles; q and the killed vector are cone-length,
    zero past reach[t].  Every sum, the series dot products and the contact,
    runs over the reach[t] prefix, so its bits depend on t alone.  Memory is
    O(cone + its bonds) on top of the graph and its cached hop distances,
    plus a window-length row per snapshot: the cone is cut out of the
    adjacency by `Graph.adjacency_block`, which maps the cone's columns by
    binary search unless the cone's entries times log2 of its size reach
    the vertex count, and only then makes scipy's position map, one int32
    per vertex; the only other window-length array is the
    one-byte-per-vertex mask that `_light_cone` selects the cone with.
    """
    n_steps = check_int(n_steps, "n_steps", 0)
    wanted = {check_int(s, "snapshot step", 0, n_steps) for s in snapshots}
    hops = g.distances_from(origin, "graph")
    n = g.n_vertices
    # the first step at which the walk can stand on a window-edge vertex (the
    # lowest and highest label, indices 0 and n - 1)
    edge_step = int(min(hops[0], hops[n - 1])) if g.truncated else n_steps + 1
    # the last step of q, and the last step of any product
    q_last = max([(n_steps + 1) // 2, *wanted])
    if edge_step <= n_steps:
        q_last = max(q_last, edge_step)
    last = n_steps if edge_step <= n_steps else q_last

    cone, reach = _light_cone(g, origin, last)
    mu = g.measure[cone]
    matrix = (g.adjacency_block(cone, cone) @ diags(1.0 / mu)).tocsr()
    edge = np.flatnonzero((cone == 0) | (cone == n - 1)) if g.truncated else []

    k, block = 0, None
    q, previous = np.zeros(cone.size), np.zeros(cone.size)
    q[0] = 1.0
    killed = None
    series = np.empty(n_steps + 1)
    series[0] = 1.0 / mu[0]
    contact = np.zeros(n_steps + 1)
    snaps: dict[int, np.ndarray] = {}
    for t in range(last + 1):
        r = int(reach[t])
        if r > k:
            k = min(cone.size, max(r, 2 * k))
            block = matrix[:k, :k]
        if t and t <= q_last:
            previous, q = q, previous
            q[:k] = block @ previous[:k]
            total = q[:r].sum()
            if abs(total - 1.0) > _CONSERVATION_TOL:
                raise SolverError(f"probability mass drifted to {total!r} at step {t}")
            if 2 * t - 1 <= n_steps:
                weighted = q[:r] / mu[:r]
                series[2 * t - 1] = weighted @ previous[:r]
                if 2 * t <= n_steps:
                    series[2 * t] = weighted @ q[:r]
        if killed is not None:
            killed[:k] = block @ killed[:k]
        if t == edge_step:
            killed = q.copy()
        if killed is not None:
            killed[edge] = 0.0
            contact[t] = 1.0 - killed[:r].sum()
        if t in wanted:
            snaps[t] = np.zeros(n)
            snaps[t][cone] = q / mu
    return HeatKernelTable(int(origin), n_steps, g.labels, series, contact, snaps)


def mean_exit_time_exact(g: Graph, origin: int, radius: int, metric: str = "graph") -> float:
    """E[exit time from the ball of `radius`], which must pass `Graph.check_ball`."""
    radius = g.check_ball(origin, radius, metric)
    row = green_row(g, g.ball(origin, radius, metric), origin)
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

    def mean_exit_time(self, radius: int) -> float:
        """Mean exit time over the trajectories that exited by the horizon."""
        if check_radius(radius) not in self.radii:
            raise InvalidArgumentError(f"radius {radius} is not tracked: {self.radii.tolist()}")
        j = int(np.flatnonzero(self.radii == radius)[0])
        live = ~self.censored[:, j]
        if not live.any():
            raise InvalidArgumentError(f"all trajectories censored at radius {radius}")
        return float(self.exit_time[live, j].mean())

    def return_frequency(self, grid_index: int = -1) -> float:
        """Fraction of trajectories sitting at the origin at a grid step."""
        return float((self.endpoint[:, grid_index] == self.origin).mean())


def _step_table(g: Graph, origin: int, n_steps: int):
    """The walk's light cone and the tables its steps read.

    Returns (cone, table, neighbours, hub_step).  `cone` is the walk's
    `_light_cone`, which it never leaves.  Row i of `table` and of
    `neighbours` belongs to cone[i] for the rows at hop < n_steps, the
    ones the walk steps from, whose bonds all end in the cone.  A table
    row is [mu_x, c_0, c_1, ..., c_8], c_k being the global cumulative
    conductance at the start of bond k of x, +inf past its last bond; the
    matching neighbour row holds the cone index of each bond's far end.
    A row with more than _TABLE_BONDS bonds (a hub) does not fit the
    table: hub_step(x, target, step) redoes, for the trajectories at
    hub rows, the global search that picks their bond.  It is None when
    no row is a hub.
    """
    adj = g.adjacency()
    indptr, indices = adj.indptr, adj.indices
    edge_cum = np.concatenate([[0.0], np.cumsum(adj.data)])
    cone, reach = _light_cone(g, origin, n_steps)
    rows = cone[: reach[n_steps - 1]]

    first = indptr[rows]
    degree = indptr[rows + 1] - first
    bond = first[:, None] + np.arange(_TABLE_BONDS)
    table = np.empty((rows.size, _TABLE_BONDS + 1))
    table[:, 0] = g.measure[rows]
    table[:, 1:] = edge_cum[np.minimum(bond, edge_cum.size - 1)]
    table[:, 2:][np.arange(1, _TABLE_BONDS) >= degree[:, None]] = np.inf
    local = np.full(g.n_vertices, -1, dtype=np.intp)
    local[cone] = np.arange(cone.size)
    neighbours = local[indices[np.minimum(bond, indices.size - 1)]]

    hub_step = None
    if degree.max() > _TABLE_BONDS:
        hub = degree > _TABLE_BONDS

        def hub_step(x: np.ndarray, target: np.ndarray, step: np.ndarray) -> None:
            """The step by global search and clip, for the trajectories on hub rows."""
            at = np.flatnonzero(hub[x])
            if at.size:
                v = cone[x[at]]
                pos = np.searchsorted(edge_cum, target[at], side="right") - 1
                np.clip(pos, indptr[v], indptr[v + 1] - 1, out=pos)
                step[at] = local[indices[pos]]
    return cone, table, neighbours.ravel(), hub_step


def simulate(
    g: Graph,
    origin: int,
    n_steps: int,
    n_trajectories: int,
    seed: int,
    radii: Sequence[int] = (),
    time_grid: Sequence[int] | None = None,
    metric: str = "graph",
) -> WalkStatistics:
    """Sample trajectories of the conductance walk.

    Trajectory i draws all its uniforms from the stream seeded by
    mix_seed(seed, i), so any batching gives identical paths.

    From x, a uniform u picks the bond of the merged adjacency whose
    cumulative conductance interval holds u * mu_x, mu being `g.measure`.
    With c_0 <= c_1 <= ... the global cumulative conductances at the starts
    of x's bonds, the step takes bond k, the number of c_1..c_(deg-1) at
    most target = u * mu_x + c_0.  The walk never leaves its light cone
    (`_light_cone`), the vertices within n_steps hops of the origin, so each
    call builds one table over the cone: a row holds mu_x, c_0 and the bounds
    c_1..c_8, padded with +inf, and a second table the cone index of each
    bond's far end.  A step is one row gather, the target, one 8-wide
    comparison with the bounds, a count of the bounds passed and one
    neighbour gather.  It compares the same floats as a binary search over
    all cumulative conductances clipped to x's bonds, so it picks the same
    bond; a step from a hub, a vertex with more than 9 bonds, does that
    search instead.

    Trajectories run `_CHUNK_SIZE` (256) at a time, and each chunk records
    its history in cone indices.  The range statistics come from that
    history: the first visits of each trajectory, found with one scratch
    array over the cone; the range weight is the sum of `g.measure` over
    them, added in time order.
    Memory is O(cone * 19 + _CHUNK_SIZE * n_steps) on top of the graph, its
    cached hop distances and the per-trajectory outputs; building the table
    takes O(n_vertices + bonds) for a while (for the whole walk when the
    cone holds a hub).  Nothing of size _CHUNK_SIZE * n_vertices is
    allocated.
    """
    n_steps = check_int(n_steps, "n_steps")
    n_trajectories = check_int(n_trajectories, "n_trajectories")
    radii_arr = np.asarray(sorted(map(check_radius, radii)), dtype=np.int64)
    time_grid = (n_steps,) if time_grid is None else time_grid
    grid = np.asarray(sorted(check_int(t, "time grid step", 1, n_steps) for t in time_grid),
                      dtype=np.int64)
    if grid.size == 0:
        raise InvalidArgumentError("time grid must hold a step")

    cone, table, neighbours, hub_step = _step_table(g, origin, n_steps)
    mu = g.measure[cone]
    dist = g.distances_from(origin, metric)[cone]
    labels = g.labels[cone]

    n_grid = grid.size
    # first_step[v] is the first step at which the current trajectory stood
    # on cone vertex v, `never` when it has not; reset after each trajectory
    steps = np.arange(n_steps + 1)
    never = n_steps + 1
    first_step = np.full(cone.size, never)
    exit_time = np.full((n_trajectories, radii_arr.size), n_steps, dtype=np.int64)
    censored = np.ones((n_trajectories, radii_arr.size), dtype=bool)
    displacement = np.empty((n_trajectories, n_grid), dtype=np.int64)
    max_displacement = np.empty((n_trajectories, n_grid), dtype=np.int64)
    range_weight = np.empty((n_trajectories, n_grid))
    range_size = np.empty((n_trajectories, n_grid), dtype=np.int64)
    endpoint = np.empty((n_trajectories, n_grid), dtype=np.int64)

    for start in range(0, n_trajectories, _CHUNK_SIZE):
        stop = min(start + _CHUNK_SIZE, n_trajectories)
        m = stop - start
        # step-major, so that each step reads and writes contiguous rows
        uniforms = np.empty((n_steps, m))
        for i in range(m):
            stream = np.random.default_rng(mix_seed(seed, start + i))
            uniforms[:, i] = stream.random(n_steps)

        x = np.zeros(m, dtype=np.intp)  # the origin is cone vertex 0
        # cone indices of each step; int32 halves the chunk's largest array
        step_hist = np.empty((n_steps + 1, m), dtype=np.int32)
        step_hist[0] = 0
        for t in range(1, n_steps + 1):
            row = table.take(x, axis=0)
            target = uniforms[t - 1] * row[:, 0]
            target += row[:, 1]
            # the bounds passed, counted as the set bytes of 8 booleans
            passed = np.bitwise_count((row[:, 2:] <= target[:, None]).view(np.uint64))
            x_next = neighbours.take(x * _TABLE_BONDS + passed[:, 0])
            if hub_step is not None:
                hub_step(x, target, x_next)
            x = x_next
            step_hist[t] = x
        x_hist = np.ascontiguousarray(step_hist.T)  # one row per trajectory
        d_hist = dist[x_hist]
        displacement[start:stop] = d_hist[:, grid]
        endpoint[start:stop] = labels[x_hist[:, grid]]
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
    )
