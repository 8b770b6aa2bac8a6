"""Finite weighted multigraphs with integer vertex labels.

Vertices carry integer labels (positions on the line for window graphs).
Bonds form a multiset: parallel bonds are kept, and in the merged
adjacency, which scipy builds once per graph, their conductances add.  The
vertex measure mu is the weighted degree: the row sums of that adjacency,
held once as `Graph.measure`.  Volumes, every Laplacian, exit-time read,
kernel step and walk step read that one array.  A graph's window is its
label range, lowest to highest label; it is derived from the labels, never
stated, so its ends are always vertices.
"""

from __future__ import annotations

import io
import os
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import InvalidArgumentError, TruncationError

METRICS = ("graph", "line")

# vertex labels, sizes and grid entries are held as int64
INT64 = np.iinfo(np.int64)


def check_int(value, name: str, low: int = 1, high: float = np.inf) -> int:
    """`value` as an int in low..high; anything but a finite integer value there is refused."""
    try:
        if low <= value <= high and int(value) == value:
            return int(value)
    except (OverflowError, TypeError, ValueError):  # int() of inf, or not a number
        pass
    bounds = "a positive integer" if (low, high) == (1, np.inf) else f"an integer in {low}..{high}"
    raise InvalidArgumentError(f"{name} must be {bounds}, got {value}")


def check_radius(radius) -> int:
    """A ball radius as an int; anything but a finite positive integer value is refused."""
    return check_int(radius, "radius")


def check_quarter_distance(radius, distance: int, of: str, error=TruncationError) -> None:
    """Refuse a probe radius beyond a quarter of `distance`, the distance that `of` names."""
    if radius > distance / 4:
        raise error(f"probe radius {radius} exceeds a quarter of {of}, {distance}")


def _distinct(ends: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an int64 array, which it overwrites.

    When the values span fewer than 8 per entry, as a window's labels do, a
    presence map over [min, max] finds them: the map's bytes stay within the
    8 per entry that a sorted copy of the array would take.  Wider spans, up
    to the whole int64 range, are sorted in place; a sort is several times
    faster than numpy's hash-based unique.  The span is a Python int, so it
    cannot overflow.
    """
    lo, hi = int(ends.min()), int(ends.max())
    if hi - lo < 8 * ends.size:
        present = np.zeros(hi - lo + 1, dtype=bool)
        ends -= lo
        present[ends] = True
        labels = np.flatnonzero(present)
        labels += lo
        return labels
    ends.sort()
    return ends[np.concatenate([[True], ends[1:] != ends[:-1]])]


def _index_dtype(n: int, entries: int) -> type:
    """The index dtype scipy keeps for a CSR matrix of n rows and columns
    built from `entries` COO entries: int32 while both fit, else int64."""
    return np.int32 if max(n, entries) <= np.iinfo(np.int32).max else np.int64


def _row_sums(matrix: csr_matrix) -> np.ndarray:
    """Row sums of a CSR matrix none of whose rows is empty, bit for bit as
    `matrix.sum(axis=1)` adds them (one reduceat over the rows' stored
    entries), without its pass to find the empty rows."""
    return np.add.reduceat(matrix.data, matrix.indptr[:-1])


def label_positions(sorted_labels: np.ndarray, wanted, where: str) -> np.ndarray:
    """Int64 positions of the labels `wanted`, in the given order (duplicates
    kept), in `sorted_labels`, sorted distinct int64 labels.

    The one lookup of labels, with two rules.  On contiguous labels, such as
    a window's, a label's position is its offset label - sorted_labels[0],
    and one range check of the offsets finds any absent label.  Otherwise
    each label takes one binary search and one membership check.  Integer
    labels are compared exactly as int64, never through a float; unsigned
    ones above the int64 maximum are absent.  The first absent label, in
    the given order, raises "vertex ... is not in `where`".
    """
    given = np.asarray(wanted).reshape(-1)
    query, beyond = given, None
    if given.dtype.kind == "u" and not np.can_cast(given.dtype, np.int64):
        beyond = given > INT64.max
        query = given.astype(np.int64)  # wraps the labels beyond, found absent below
    lo, last = int(sorted_labels[0]), sorted_labels.size - 1
    found = None  # None: every label is present
    if np.can_cast(query.dtype, np.int64) and int(sorted_labels[-1]) - lo == last:
        idx = np.subtract(query, sorted_labels[0], dtype=np.int64)
        if idx.size and not (idx.min() >= 0 and idx.max() <= last):
            found = (idx >= 0) & (idx <= last)
    else:
        idx = np.minimum(np.searchsorted(sorted_labels, query), last)
        found = sorted_labels[idx] == query
    if beyond is not None and beyond.any():
        found = ~beyond if found is None else found & ~beyond
    if found is not None and not found.all():
        raise InvalidArgumentError(f"vertex {given[np.argmin(found)]} is not in {where}")
    return idx


def _check_metric(metric: str) -> str:
    if metric not in METRICS:
        raise InvalidArgumentError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return metric


class Graph:
    """Immutable connected multigraph.

    Parameters
    ----------
    bonds : iterable of (u, v, conductance)
        Vertex labels are integers that fit in int64, conductances positive
        reals.  Repeated (u, v) pairs are kept as parallel bonds.
    marked : int
        Distinguished origin vertex; must appear in some bond.
    truncated : bool
        True for windows cut out of an infinite graph; `check_ball` then
        refuses balls the window may cut, and the walk's contact with the
        window edge is tracked.

    `window` is (labels[0], labels[-1]), the lowest and highest label: a
    truncated graph's edge vertices are exactly its two end labels.

    `Graph.from_arrays` takes the bonds as three equal-length arrays
    instead; the tuple constructor is a thin wrapper that turns the tuples
    into those arrays, and both run one construction with the same checks.
    A graph holds O(n + bonds) memory: the labels, the bond arrays, the
    merged adjacency, the measure and cached distances.  Building it makes
    no bond-length copy that scipy would throw away: both directions of the
    bond ends are concatenated straight into the index dtype scipy keeps
    (`_index_dtype`, int32 while the vertex and entry counts fit), so its
    only temporaries beside the kept arrays are the label pass's bond ends
    and the both-direction COO input that scipy converts to CSR.

    Facts that never change are computed once per graph, and each has one
    name.  The labels are the distinct bond ends: a presence map over the
    label range finds them when the range spans fewer than 8 values per
    bond end, as a window's does, and a sort otherwise.  `adjacency()` is
    the merged adjacency W, a scipy CSR matrix over both directions of
    every bond, parallel conductances summed; it is built with the graph,
    because the checks that every vertex has measure >= 1 and that the
    graph is connected read it.  `measure` is mu, the row sums of W, kept
    as a read-only array; nothing else derives a measure.  The graph is
    connected when the unweighted hop BFS from `marked` reaches every
    vertex; those hop distances are kept as `distances_from(marked,
    "graph")`, which the kernel, the walk and graph-metric balls about the
    marked vertex read without a second traversal.  `indices`, which also
    looks up the bond ends when the graph is built, has `label_positions`'
    two rules: on contiguous labels a label's index is its offset
    label - labels[0], with one range check; on others, one binary search
    and one membership check.  `adjacency_block` cuts rows x columns
    out of W as scipy's fancy indexing does, at a cost that follows the
    rows when they are few: every Laplacian block and coupling of the
    solvers, and the kernel's light-cone matrix, is cut out by it.
    """

    __slots__ = (
        "labels", "bond_u", "bond_v", "bond_c", "marked", "truncated",
        "measure", "_adjacency", "_cache",
    )

    def __init__(
        self,
        bonds: Iterable[tuple[int, int, float]],
        marked: int,
        truncated: bool = False,
    ) -> None:
        triples = list(bonds)
        self._build([t[0] for t in triples], [t[1] for t in triples],
                    np.asarray([t[2] for t in triples], dtype=np.float64), marked, truncated)

    @classmethod
    def from_arrays(
        cls,
        u: ArrayLike,
        v: ArrayLike,
        c: ArrayLike,
        marked: int,
        truncated: bool = False,
    ) -> "Graph":
        """Graph with bonds (u[i], v[i], c[i]), kept in that order.

        The arrays are one-dimensional and of equal length; the graph keeps
        its own copy of c.
        """
        g = cls.__new__(cls)
        g._build(u, v, np.array(c, dtype=np.float64), marked, truncated)
        return g

    def _build(
        self,
        u: ArrayLike,
        v: ArrayLike,
        c: np.ndarray,
        marked: int,
        truncated: bool,
    ) -> None:
        try:
            with np.errstate(invalid="ignore"):
                u64, v64 = (np.asarray(x).astype(np.int64, copy=False) for x in (u, v))
            # a cast that changes a label, a fraction or a value past int64, is refused
            if not (np.array_equal(u64, u) and np.array_equal(v64, v)):
                raise ValueError
        except (OverflowError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(
                "vertex labels must be integers that fit in a 64-bit integer") from exc
        u, v = u64, v64
        if not (u.ndim == v.ndim == c.ndim == 1 and u.size == v.size == c.size):
            raise InvalidArgumentError("bond arrays u, v, c must be 1-D and of equal length")
        if not c.size:
            raise InvalidArgumentError("a graph needs at least one bond")
        if np.any(u == v):
            raise InvalidArgumentError("self-loops are not allowed")
        if np.any(c <= 0) or not np.all(np.isfinite(c)):
            raise InvalidArgumentError("conductances must be positive and finite")

        labels = _distinct(np.concatenate([u, v]))
        self.labels = labels
        self.bond_u = self.indices(u)
        self.bond_v = self.indices(v)
        self.bond_c = c
        if marked not in labels:
            raise InvalidArgumentError(f"marked vertex {marked} is not in the graph")
        self.marked = int(marked)
        self.truncated = bool(truncated)

        # both directions of every bond, the ends already in the index dtype
        # scipy keeps, so it copies none; the CSR conversion sums duplicates
        n = labels.size
        idx = _index_dtype(n, 2 * c.size)
        self._adjacency = csr_matrix(
            (
                np.concatenate([c, c]),
                (np.concatenate([self.bond_u, self.bond_v], dtype=idx),
                 np.concatenate([self.bond_v, self.bond_u], dtype=idx)),
            ),
            shape=(n, n),
        )
        mu = _row_sums(self._adjacency)
        mu.flags.writeable = False
        if np.any(mu < 1.0):
            raise InvalidArgumentError("every vertex must have measure >= 1")
        self.measure = mu
        # connected: the hop BFS from the marked vertex reaches every vertex
        self._cache: dict = {("dist", self.marked, "graph"): self._bfs_hops(self.index(marked))}

    # -- basic accessors ------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.labels.size

    @property
    def n_bonds(self) -> int:
        return self.bond_c.size

    def index(self, label: int) -> int:
        return int(self.indices([label])[0])

    def indices(self, labels: Sequence[int]) -> np.ndarray:
        """Vertex indices of `labels`, by `label_positions`."""
        return label_positions(self.labels, labels, "the graph")

    def bonds(self) -> Iterator[tuple[int, int, float]]:
        for i in range(self.bond_c.size):
            yield (
                int(self.labels[self.bond_u[i]]),
                int(self.labels[self.bond_v[i]]),
                float(self.bond_c[i]),
            )

    # -- merged adjacency ------------------------------------------------

    def adjacency(self) -> csr_matrix:
        """Merged weighted adjacency W (scipy CSR); parallel conductances add."""
        return self._adjacency

    def adjacency_block(self, rows: np.ndarray, cols: np.ndarray) -> csr_matrix:
        """W at vertex indices `rows` x `cols`, byte for byte as scipy's
        `adjacency()[rows][:, cols]` gives it: rows and columns in the given
        orders, each row's entries in their stored order.  `cols` are distinct.

        Scipy maps columns through a position map with one entry per vertex.
        That map is used here too when the selected rows hold many entries:
        their count times log2 |cols| reaches the vertex count, as for a
        grounded window.  Otherwise, as for a ball in a wide window, each
        entry's column is found by a binary search of the sorted `cols`, so
        the block costs what its rows hold, not what the window holds.
        """
        adj = self._adjacency
        entries = int(np.sum(adj.indptr[rows + 1] - adj.indptr[rows]))
        if not len(cols) or entries * np.log2(max(len(cols), 2)) >= self.n_vertices:
            return adj[rows][:, cols]
        picked = adj[rows]
        order = np.argsort(cols)
        ends = cols[order]
        at = np.minimum(np.searchsorted(ends, picked.indices), ends.size - 1)
        keep = ends[at] == picked.indices
        indptr = np.concatenate([[0], np.cumsum(keep)])[picked.indptr]
        return csr_matrix((picked.data[keep], order[at[keep]], indptr),
                          shape=(len(rows), len(cols)))

    def _bfs_hops(self, start_index: int) -> np.ndarray:
        """Hop distances from one vertex index; a vertex the BFS cannot reach, at
        distance inf, means the graph is not connected and is refused."""
        hops = dijkstra(self.adjacency(), indices=start_index, unweighted=True)
        if not np.isfinite(hops).all():
            raise InvalidArgumentError("graph must be connected")
        return hops.astype(np.int64)

    # -- metrics, balls, volumes -----------------------------------------

    def is_line_labeled(self) -> bool:
        """Labels form a contiguous integer interval."""
        return int(self.labels[-1]) - int(self.labels[0]) == self.n_vertices - 1

    def distances_from(self, center: int, metric: str = "graph") -> np.ndarray:
        """Distance from `center` to every vertex, aligned with `labels`."""
        _check_metric(metric)
        key = ("dist", center, metric)
        if key not in self._cache:
            i = self.index(center)
            if metric == "line":
                if not self.is_line_labeled():
                    raise InvalidArgumentError("line metric requires contiguous integer labels")
                d = np.abs(self.labels - self.labels[i]).astype(np.int64)
            else:
                d = self._bfs_hops(i)
            self._cache[key] = d
        return self._cache[key]

    def ball(self, center: int, radius: int, metric: str = "graph") -> np.ndarray:
        """Labels of vertices at distance strictly less than `radius`."""
        radius = check_radius(radius)
        return self.labels[self.distances_from(center, metric) < radius]

    def volume(self, center: int, radius: int, metric: str = "graph") -> float:
        """Measure of the ball around `center`."""
        radius = check_radius(radius)
        return float(self.measure[self.distances_from(center, metric) < radius].sum())

    @property
    def window(self) -> tuple[int, int]:
        """The label range: lowest and highest label."""
        return int(self.labels[0]), int(self.labels[-1])

    def half_width(self) -> int:
        """Line distance from the marked vertex to the nearer window end."""
        lo, hi = self.window
        return int(min(self.marked - lo, hi - self.marked))

    def check_ball(self, center: int, radius, metric: str = "graph") -> int:
        """The radius, as an int, of a ball about `center` that can be measured: it
        passes `check_radius`, leaves some vertex outside, and on a truncated graph
        reaches at most a quarter of the distance, in the ball's metric, from `center`
        to the nearer window end (the lowest or highest label)."""
        radius = check_radius(radius)
        dist = self.distances_from(center, metric)
        if not (dist >= radius).any():
            raise InvalidArgumentError(f"ball of radius {radius} covers the whole graph")
        if self.truncated:
            check_quarter_distance(radius, int(min(dist[0], dist[-1])), f"the {metric}-metric "
                                   f"distance from {center} to the nearer window end")
        return radius

    # -- perturbation ------------------------------------------------------

    def with_bond(self, u: int, v: int, conductance: float = 1.0) -> "Graph":
        """A copy with one extra bond (labels may be new, and widen the window)."""
        return Graph.from_arrays(
            np.append(self.labels[self.bond_u], int(u)),
            np.append(self.labels[self.bond_v], int(v)),
            np.append(self.bond_c, float(conductance)),
            marked=self.marked,
            truncated=self.truncated,
        )

    def __repr__(self) -> str:
        return (
            f"Graph(n_vertices={self.n_vertices}, n_bonds={self.n_bonds}, "
            f"marked={self.marked}, window={self.window})"
        )


# -- files ------------------------------------------------------------------


def write_files(files: dict[str | os.PathLike, str]) -> None:
    """Write each text to its path as UTF-8 with `\\n` line ends, parents created; a
    path that cannot be written raises InvalidArgumentError naming it."""
    for path, text in files.items():
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot write {path}: {exc}") from exc


def write_edge_list(g: Graph, path: str | os.PathLike) -> None:
    """Write `u v conductance` lines under a one-line header."""
    write_files({path: dumps_edge_list(g)})


def dumps_edge_list(g: Graph) -> str:
    lo, hi = g.window
    buf = io.StringIO()
    buf.write(f"# marked={g.marked} window={lo},{hi} truncated={int(g.truncated)}\n")
    for u, v, c in g.bonds():
        buf.write(f"{u} {v} {c!r}\n")
    return buf.getvalue()


def read_edge_list(path: str | os.PathLike) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read edge list: {exc}") from exc
    return loads_edge_list(text)


def loads_edge_list(text: str) -> Graph:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise InvalidArgumentError("edge list must start with a '# marked=... window=...' header")
    fields: dict[str, str] = {}
    for token in lines[0][1:].split():
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        marked = int(fields["marked"])
        lo_s, _, hi_s = fields["window"].partition(",")
        window = (int(lo_s), int(hi_s))
        truncated = {"0": False, "1": True}[fields.get("truncated", "0")]
    except (KeyError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed edge-list header: {lines[0]!r}") from exc
    u: list[int] = []
    v: list[int] = []
    c: list[float] = []
    for ln in lines[1:]:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise InvalidArgumentError(f"malformed edge-list line: {ln!r}")
        try:
            u.append(int(parts[0]))
            v.append(int(parts[1]))
            c.append(float(parts[2]))
        except ValueError as exc:
            raise InvalidArgumentError(f"malformed edge-list line: {ln!r}") from exc
    g = Graph.from_arrays(u, v, c, marked=marked, truncated=truncated)
    if g.window != window:
        raise InvalidArgumentError(
            f"header window {window[0]},{window[1]} is not the label range "
            f"{g.window[0]},{g.window[1]}"
        )
    return g
