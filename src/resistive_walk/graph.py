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
from scipy.sparse.csgraph import connected_components, dijkstra

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
    merged adjacency, the measure and cached distances.

    Facts that never change are computed once per graph, and each has one
    name.  `adjacency()` is the merged adjacency W, a scipy CSR matrix over
    both directions of every bond, parallel conductances summed; it is
    built with the graph, because the checks that every vertex has measure
    >= 1 and that the graph is connected read it.  `measure` is mu, the row
    sums of W, kept as a read-only array; nothing else derives a measure.
    `indices` guesses each label's position as label - labels[0], which is
    right on contiguous labels such as a window's, and binary-searches only
    the guesses that miss; the bond ends are looked up the same way when
    the graph is built.
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

        # sorted distinct labels; a sort is several times faster here than
        # numpy's hash-based unique
        ends = np.sort(np.concatenate([u, v]))
        labels = ends[np.concatenate([[True], ends[1:] != ends[:-1]])]
        self.labels = labels
        self.bond_u = self.indices(u)
        self.bond_v = self.indices(v)
        self.bond_c = c
        if marked not in labels:
            raise InvalidArgumentError(f"marked vertex {marked} is not in the graph")
        self.marked = int(marked)
        self.truncated = bool(truncated)

        # both directions of every bond; the CSR conversion sums duplicates
        n = labels.size
        self._adjacency = csr_matrix(
            (
                np.concatenate([c, c]),
                (np.concatenate([self.bond_u, self.bond_v]),
                 np.concatenate([self.bond_v, self.bond_u])),
            ),
            shape=(n, n),
        )
        mu = np.asarray(self._adjacency.sum(axis=1)).ravel()
        mu.flags.writeable = False
        if np.any(mu < 1.0):
            raise InvalidArgumentError("every vertex must have measure >= 1")
        self.measure = mu
        self._cache: dict = {}
        if not self._connected():
            raise InvalidArgumentError("graph must be connected")

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
        """Vertex indices of `labels`, in the given order (duplicates kept).

        Each position is first guessed as label - labels[0], which is right
        for every label of a contiguous label range; only the guesses that
        miss are binary-searched.  Every result is checked against the
        labels, and the first label that is absent raises.
        """
        wanted = np.asarray(labels).reshape(-1)
        last = self.labels.size - 1
        if np.can_cast(wanted.dtype, np.int64):
            idx = wanted.astype(np.int64) - self.labels[0]
            np.clip(idx, 0, last, out=idx)
            miss = np.flatnonzero(self.labels[idx] != wanted)
        else:
            # no exact integer offset for this dtype: search every label
            idx = np.zeros(wanted.size, dtype=np.int64)
            miss = np.arange(wanted.size)
        if miss.size:
            idx[miss] = np.minimum(np.searchsorted(self.labels, wanted[miss]), last)
            found = self.labels[idx[miss]] == wanted[miss]
            if not found.all():
                missing = wanted[miss[np.argmin(found)]]
                raise InvalidArgumentError(f"vertex {missing} is not in the graph")
        return idx

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

    def _connected(self) -> bool:
        ncomp, _ = connected_components(self.adjacency(), directed=False)
        return int(ncomp) == 1

    def _bfs_hops(self, start_index: int) -> np.ndarray:
        hops = dijkstra(self.adjacency(), indices=start_index, unweighted=True)
        return hops.astype(np.int64, casting="unsafe")

    # -- metrics, balls, volumes -----------------------------------------

    def is_line_labeled(self) -> bool:
        """Labels form a contiguous integer interval."""
        return int(self.labels[-1] - self.labels[0]) == self.n_vertices - 1

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
