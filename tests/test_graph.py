import bisect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from resistive_walk import generate, walk
from resistive_walk.resistance import dirichlet_potential, green_row
from resistive_walk import graph as graph_module
from resistive_walk.errors import InvalidArgumentError, TruncationError
from resistive_walk.generate import ExpTailParams, LongRangeParams, fixture
from resistive_walk.graph import (
    INT64,
    Graph,
    dumps_edge_list,
    loads_edge_list,
    read_edge_list,
    write_edge_list,
)

PATH = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]


def test_basic_accessors():
    g = Graph(PATH, marked=0)
    assert g.n_vertices == 4
    assert g.n_bonds == 3
    assert list(g.labels) == [0, 1, 2, 3]
    assert g.marked == 0
    assert g.window == (0, 3)
    assert not g.truncated
    assert g.measure.sum() == pytest.approx(6.0)
    assert list(g.bonds()) == [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]


def test_rejects_empty_bond_list():
    with pytest.raises(InvalidArgumentError, match="at least one bond"):
        Graph([], marked=0)


def test_rejects_self_loop():
    with pytest.raises(InvalidArgumentError, match="self-loop"):
        Graph([(0, 0, 1.0)], marked=0)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_rejects_bad_conductance(bad):
    with pytest.raises(InvalidArgumentError, match="positive and finite"):
        Graph([(0, 1, bad)], marked=0)


def test_rejects_unknown_marked_vertex():
    with pytest.raises(InvalidArgumentError, match="marked vertex"):
        Graph(PATH, marked=9)


def test_rejects_disconnected_graph():
    with pytest.raises(InvalidArgumentError, match="connected"):
        Graph([(0, 1, 1.0), (5, 6, 1.0)], marked=0)


# bonds that leave a vertex the BFS from the marked vertex 0 cannot reach
@pytest.mark.parametrize(
    "bonds",
    [
        [(0, 1, 1.0), (5, 6, 1.0)],
        [(0, 2**40, 1.0), (-5, 3, 1.0)],                # the sort path
        [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (7, 8, 1.0), (8, 9, 1.0)],
        [(3, 4, 1.0), (-1, 0, 1.0)],                    # the marked part is the later one
    ],
)
def test_every_constructor_refuses_a_graph_the_marked_bfs_does_not_cover(bonds):
    u, v, c = (list(col) for col in zip(*bonds))
    header = f"# marked=0 window={min(u + v)},{max(u + v)}\n"
    text = header + "".join(f"{a} {b} {w}\n" for a, b, w in bonds)
    for build in (lambda: Graph(bonds, marked=0), lambda: Graph.from_arrays(u, v, c, marked=0),
                  lambda: loads_edge_list(text)):
        with pytest.raises(InvalidArgumentError, match="graph must be connected"):
            build()


@pytest.mark.parametrize("marked", [0, 37, -64])
def test_construction_caches_the_hop_distances_from_marked(monkeypatch, marked):
    lrp = generate.generate_long_range(LongRangeParams(128, 1.0, 3.5, seed=7))
    g = Graph.from_arrays(lrp.labels[lrp.bond_u], lrp.labels[lrp.bond_v], lrp.bond_c,
                          marked=marked, truncated=True)
    calls = []
    real = graph_module.dijkstra

    def counted(*args, **kwargs):
        calls.append(kwargs["indices"])
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_module, "dijkstra", counted)
    hops = g.distances_from(marked, "graph")
    assert calls == []
    fresh = real(g.adjacency(), indices=g.index(marked), unweighted=True)
    assert hops.dtype == np.int64 and np.array_equal(hops, fresh)
    # the BFS from another vertex is run once, then cached
    g.distances_from(1, "graph")
    g.distances_from(1, "graph")
    assert calls == [g.index(1)]


def test_rejects_measure_below_one():
    # parallel bonds add: two 0.5 bonds give measure 1, two 0.25 bonds 0.5
    assert Graph([(0, 1, 0.5), (1, 0, 0.5)], marked=0).measure.tolist() == [1.0, 1.0]
    with pytest.raises(InvalidArgumentError, match="measure >= 1"):
        Graph([(0, 1, 0.25), (1, 0, 0.25), (1, 2, 1.0)], marked=0)


def test_measure_defaults_to_weighted_degree():
    g = Graph([(0, 1, 2.0), (1, 2, 3.0)], marked=1)
    assert list(g.measure) == pytest.approx([2.0, 5.0, 3.0])


def test_index_lookup_errors_on_missing_label():
    g = Graph(PATH, marked=0)
    assert g.index(2) == 2
    with pytest.raises(InvalidArgumentError, match="not in the graph"):
        g.index(17)


def test_indices_keep_order_and_duplicates():
    g = Graph([(-3, 0, 1.0), (0, 5, 1.0), (5, 9, 1.0)], marked=0)
    assert g.indices([9, -3, 5, 9]).tolist() == [3, 0, 2, 3]
    got = g.indices(np.asarray([0, 0, 5]))
    assert got.dtype == np.int64 and got.tolist() == [1, 1, 2]
    for empty in ([], np.asarray([], dtype=np.int64)):
        assert g.indices(empty).size == 0


@pytest.mark.parametrize("labels, missing", [([0, 4, 7], 4), ([10], 10), ([-4, 5], -4)])
def test_indices_name_the_first_missing_label(labels, missing):
    g = Graph([(-3, 0, 1.0), (0, 5, 1.0), (5, 9, 1.0)], marked=0)
    with pytest.raises(InvalidArgumentError, match=f"vertex {missing} is not"):
        g.indices(labels)


@pytest.mark.parametrize("labels, missing", [([0, 70, -70], 70), ([-65, 3], -65), ([64, 65, -64], 65)])
def test_contiguous_indices_name_the_first_missing_label(labels, missing):
    g = fixture("line", 64)
    assert g.is_line_labeled()
    for wanted in (labels, np.asarray(labels)):
        with pytest.raises(InvalidArgumentError, match=f"vertex {missing} is not"):
            g.indices(wanted)


@pytest.mark.parametrize("gaps", [(1, 1, 1), (1, 5, 3)], ids=["contiguous", "gapped"])
def test_uint64_labels_past_float_precision_are_looked_up_exactly(gaps):
    b = 2**62
    ends = np.cumsum((b,) + gaps).tolist()
    g = Graph.from_arrays(ends[:-1], ends[1:], np.ones(3), marked=b)
    for k, label in enumerate(ends):
        assert g.indices(np.array([label], dtype=np.uint64)).tolist() == [k]
    assert g.indices(np.array(ends[::-1], dtype=np.uint64)).tolist() == [3, 2, 1, 0]
    # labels above the int64 maximum are never present; the first absent one is named
    for wanted, missing in (([ends[1], 2**63 + 1, ends[0] + 2], 2**63 + 1),
                            ([ends[1], b - 1, 2**64 - 1], b - 1),
                            ([2**63 + b], 2**63 + b)):
        with pytest.raises(InvalidArgumentError, match=f"vertex {missing} is not"):
            g.indices(np.array(wanted, dtype=np.uint64))
    # 2^63 + 1 wraps to the int64 label -2^63 + 1 when cast, yet is not that label
    h = Graph.from_arrays([-(2**63) + 1], [0], [1.0], marked=0)
    with pytest.raises(InvalidArgumentError, match=f"vertex {2**63 + 1} is not"):
        h.indices(np.array([2**63 + 1], dtype=np.uint64))


# label sets about a center, each label within `spread` of it: a small spread
# takes the presence map, a wide one the sort; the centers put some sets near
# +-2^62 and the int64 ends, and a set may mix labels about two centers, whose
# span (near 2^63 for -2^62 and 2^62) is past what int64 can hold
_CENTERS = [0, -(2**62), 2**62, INT64.min + 50, INT64.max - 50]


@st.composite
def _label_sets(draw):
    ends = []
    for center in draw(st.lists(st.sampled_from(_CENTERS), min_size=1, max_size=2)):
        spread = draw(st.sampled_from([3, 60, 10**6]))
        offsets = draw(st.lists(st.integers(-spread, spread), min_size=1, max_size=40))
        ends += [min(max(center + d, INT64.min), INT64.max) for d in offsets]
    return np.asarray(draw(st.permutations(ends)), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(_label_sets())
def test_distinct_labels_are_numpys_unique(ends):
    want = np.unique(ends)
    got = graph_module._distinct(ends.copy())
    assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
    # the same labels through a graph: a path visits them in the drawn order
    if want.size > 1:
        path = [int(x) for x in dict.fromkeys(ends.tolist())]
        g = Graph.from_arrays(path[:-1], path[1:], np.ones(len(path) - 1), marked=path[0])
        assert g.labels.tobytes() == want.tobytes()
        assert g.window == (int(want[0]), int(want[-1]))


def _sorted_distinct(ends):
    """Distinct labels by a sorted copy and a mask of its steps."""
    ends = np.sort(ends)
    return ends[np.concatenate([[True], ends[1:] != ends[:-1]])]


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        out = call(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("span_per_end", [0.5, 1, 7.9, 8.1, 1000])
def test_distinct_labels_take_no_more_memory_than_a_sorted_copy(span_per_end):
    # the presence map spans at most 8 values per end, so that its bytes stay
    # within the 8 per end of a sorted copy; past that, the ends are sorted
    rng = np.random.default_rng(3)
    ends = rng.integers(-50, int(span_per_end * 20_000) - 50, size=20_000)
    want, sort_peak = _traced_peak(_sorted_distinct, ends.copy())
    got, peak = _traced_peak(graph_module._distinct, ends.copy())
    assert got.tobytes() == want.tobytes()
    assert peak <= sort_peak


def _searchsorted_indices(labels, wanted, where="the graph"):
    """Reference lookup: one binary search per label, then a check, both by
    Python's exact comparison of numbers."""
    wanted = np.asarray(wanted).reshape(-1)
    sorted_labels = labels.tolist()
    idx = []
    for k, label in enumerate(wanted.tolist()):
        i = bisect.bisect_left(sorted_labels, label)
        if i == len(sorted_labels) or sorted_labels[i] != label:
            raise InvalidArgumentError(f"vertex {wanted[k]} is not in {where}")
        idx.append(i)
    return np.asarray(idx, dtype=np.int64)


def _gapped_graphs():
    """Graphs whose labels are not one contiguous range, plus one that is,
    each with the bonds it was built from."""
    rng = np.random.default_rng(5)
    scattered = np.sort(rng.choice(np.arange(-3000, 3000), size=80, replace=False))
    chain = [(int(a), int(b), 1.0) for a, b in zip(scattered, scattered[1:])]
    sparse = [(-1000, 0, 1.0), (0, 7, 0.5), (7, 5000, 2.0), (5000, -1000, 1.0), (7, 8, 1.0)]
    text = "# marked=0 window=-1000,5000 truncated=0\n" + "".join(
        f"{u} {v} {c!r}\n" for u, v, c in sparse
    )
    negative = [(-50, -7, 1.0), (-7, -3, 2.0), (-3, -2, 1.0), (-50, -2, 0.5)]
    extremes = [(-(2**62), 0, 1.0), (0, 2**62, 1.0), (0, 1, 1.0)]
    # labels past float64 precision: uint64 queries of them must not round
    b = 2**62
    near = [(b, b + 1, 1.0), (b + 1, b + 2, 1.0), (b + 2, b + 3, 1.0)]
    line = fixture("line", 64)
    line_bonds = [(x, x + 1, 1.0) for x in range(-64, 64)]
    return {
        "sparse-edge-list": (loads_edge_list(text), sparse),
        "far-bond": (line.with_bond(3, 10**6, 1.5), line_bonds + [(3, 10**6, 1.5)]),
        "far-bond-below": (line.with_bond(-3, -(10**9)), line_bonds + [(-3, -(10**9), 1.0)]),
        "negative": (Graph(negative, marked=-7), negative),
        "int64-extremes": (Graph(extremes, marked=0), extremes),
        "near-2^62": (Graph(near, marked=b), near),
        "scattered": (Graph(chain, marked=chain[0][0]), chain),
        "contiguous": (line, line_bonds),
    }


GAPPED = _gapped_graphs()


def _queries(g):
    """Label lists of several dtypes: present labels, absent ones, empty input."""
    rng = np.random.default_rng(g.n_vertices)
    labels = g.labels
    present = rng.permutation(np.concatenate([labels, labels[:3], labels[-2:]]))
    absent = np.setdiff1d(np.concatenate([labels - 1, labels + 1]), labels)[:6]
    absent = np.concatenate([absent, [labels[0] - 1, labels[-1] + 1]])
    nonneg = present[present >= 0]
    mixed = np.insert(present, [5, 9], absent[:2])
    yield present.tolist()
    yield present
    yield nonneg.astype(np.uint64)
    yield nonneg[nonneg < 2**31].astype(np.uint32)
    yield present[np.abs(present) < 2**31].astype(np.int32)
    yield present.astype(np.float64)
    yield [float(labels[0]) + 0.5]
    yield []
    yield np.asarray([], dtype=np.int64)
    yield mixed
    yield mixed.astype(np.float64)
    yield absent
    yield absent[::-1].tolist()
    for label in absent:
        yield [label]
        yield np.asarray([labels[0], label, labels[-1]])


def _lookup_or_message(lookup, *args):
    try:
        return lookup(*args)
    except InvalidArgumentError as exc:
        return str(exc)


@pytest.mark.parametrize("name", list(GAPPED))
def test_indices_match_a_binary_search(name):
    g, _ = GAPPED[name]
    # the value lookups of solved results: a potential over every label, and a
    # Green row whose domain leaves out a middle label, so it is never contiguous
    pot = dirichlet_potential(g, [g.labels[0]], [g.labels[-1]])
    domain = np.delete(g.labels, g.n_vertices // 2)
    row = green_row(g, domain, domain[0])
    for wanted in _queries(g):
        got = _lookup_or_message(g.indices, wanted)
        want = _lookup_or_message(_searchsorted_indices, g.labels, wanted)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
        for label in wanted:
            for result, labels, where in ((pot, pot.labels, "the graph"),
                                          (row, row.domain, "the domain")):
                want = _lookup_or_message(_searchsorted_indices, labels, [label], where)
                assert _lookup_or_message(result.value, label) == (
                    want if isinstance(want, str) else float(result.values[want[0]])
                )
    for label in list(g.labels[:3]) + [int(g.labels[-1]) + 1, int(g.labels[0]) - 7]:
        want = _lookup_or_message(_searchsorted_indices, g.labels, [label])
        assert _lookup_or_message(g.index, label) == (
            want if isinstance(want, str) else int(want[0])
        )


def _random_multigraph(seed):
    """A random tree on scattered labels plus random extra bonds; some pairs
    carry 3-5 parallel bonds in both orientations.  Conductances are random."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(np.arange(-400, 400), size=50, replace=False)
    bonds = [(int(labels[rng.integers(i)]), int(labels[i]), 1.0) for i in range(1, 50)]
    for _ in range(30):
        a, b = rng.choice(labels, size=2, replace=False)
        bonds.append((int(a), int(b), 1.0))
    for k in rng.choice(len(bonds), size=8, replace=False):
        a, b, _ = bonds[k]
        bonds += [(b, a, 1.0) if j % 2 else (a, b, 1.0) for j in range(rng.integers(2, 5))]
    order = rng.permutation(len(bonds))
    c = rng.random(len(bonds)) * 2.0 + 1.0
    return [(bonds[k][0], bonds[k][1], float(w)) for k, w in zip(order, c)], int(labels[0])


def _check_merged_adjacency(g, bonds):
    """The CSR against a dense accumulation of `bonds`, bond by bond."""
    dense = np.zeros((g.n_vertices, g.n_vertices))
    where = {int(x): i for i, x in enumerate(g.labels)}
    for a, b, c in bonds:
        dense[where[a], where[b]] += c
        dense[where[b], where[a]] += c
    adj = g.adjacency()
    indptr, indices, weights = adj.indptr, adj.indices, adj.data
    for i in range(g.n_vertices):
        cols = np.flatnonzero(dense[i])
        assert indices[indptr[i]:indptr[i + 1]].tolist() == cols.tolist()
        np.testing.assert_allclose(weights[indptr[i]:indptr[i + 1]], dense[i, cols],
                                   rtol=1e-15, atol=0)
    row_sums = np.asarray(adj.sum(axis=1)).ravel()
    assert g.measure.tobytes() == row_sums.tobytes()
    assert not g.measure.flags.writeable
    np.testing.assert_allclose(g.measure, dense.sum(axis=1), rtol=1e-14, atol=0)


def test_parallel_bonds_merge_in_csr():
    g = Graph([(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0)], marked=0)
    assert g.n_bonds == 3
    adj = g.adjacency()
    row0 = adj.data[adj.indptr[0]:adj.indptr[1]]
    assert list(adj.indices[adj.indptr[0]:adj.indptr[1]]) == [1]
    assert row0 == pytest.approx([3.0])
    assert g.measure[0] == pytest.approx(3.0)
    for seed in range(6):
        bonds, marked = _random_multigraph(seed)
        g = Graph(bonds, marked=marked)
        assert g.n_bonds == len(bonds)
        assert g.adjacency().nnz < 2 * len(bonds)
        _check_merged_adjacency(g, bonds)


def _scipy_adjacency(labels, u, v, c):
    """The merged adjacency by the plain recipe: int64 COO of both directions
    of every bond, converted by scipy's `csr_matrix`."""
    iu, iv = np.searchsorted(labels, u), np.searchsorted(labels, v)
    return csr_matrix((np.concatenate([c, c]), (np.concatenate([iu, iv]).astype(np.int64),
                                                np.concatenate([iv, iu]).astype(np.int64))),
                      shape=(labels.size, labels.size))


@st.composite
def _multigraph_arrays(draw):
    """Bond arrays of a connected multigraph: a path over distinct labels (sparse,
    negative or far apart) plus random bonds, some parallel and in both
    orientations, all in a drawn order; or a small generated lrp or exp window."""
    if draw(st.booleans()):
        params = draw(st.sampled_from([LongRangeParams, ExpTailParams]))
        half_width, seed = draw(st.integers(2, 300)), draw(st.integers(0, 2**32))
        tail = (1.0, draw(st.floats(2.1, 4.0))) if params is LongRangeParams else (
            draw(st.floats(0.05, 2.0)),)
        g = generate._generate_window(params(half_width, *tail, seed))
        return g.labels[g.bond_u], g.labels[g.bond_v], g.bond_c
    spread = draw(st.sampled_from([10, 1000, 2**40]))
    labels = draw(st.lists(st.integers(-spread, spread), min_size=2, max_size=60, unique=True))
    n = len(labels)
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=3 * n))
    parallel = draw(st.lists(st.integers(0, n - 2), max_size=8))
    ends = [(i, i + 1) for i in range(n - 1)] + extra + [(i + 1, i) for i in parallel]
    ends = draw(st.permutations(ends))
    c = draw(st.lists(st.floats(1.0, 4.0), min_size=len(ends), max_size=len(ends)))
    u = np.array([labels[a] for a, _ in ends], dtype=np.int64)
    v = np.array([labels[b] for _, b in ends], dtype=np.int64)
    return u, v, np.array(c)


@settings(max_examples=200, deadline=None)
@given(_multigraph_arrays())
def test_adjacency_is_scipys_conversion_byte_for_byte(arrays):
    u, v, c = arrays
    g = Graph.from_arrays(u, v, c, marked=int(u[0]))
    want = _scipy_adjacency(np.unique(np.concatenate([u, v])), u, v, c)
    for field in ("indptr", "indices", "data"):
        a, b = getattr(g.adjacency(), field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_index_dtype_is_int32_while_vertices_and_entries_fit():
    top = 2**31 - 1
    assert graph_module._index_dtype(top, top) is np.int32
    assert graph_module._index_dtype(top + 1, 2) is np.int64
    assert graph_module._index_dtype(2, top + 1) is np.int64
    # scipy's own choice on a one-row matrix of that many columns, which holds
    # no array of that length
    for n in (top, top + 1):
        one = csr_matrix((np.ones(1), (np.zeros(1, dtype=np.int64),
                                       np.zeros(1, dtype=np.int64))), shape=(1, n))
        assert one.indices.dtype == one.indptr.dtype == graph_module._index_dtype(n, 2)


# -- memory of a wide build ---------------------------------------------------


WIDE = [LongRangeParams(1 << 16, 1.0, 3.5, seed=7), ExpTailParams(1 << 16, 1.0, seed=7)]


def _held_bytes(g):
    """What a built graph keeps: labels, bond arrays, adjacency, measure and hops."""
    adj = g.adjacency()
    kept = (g.labels, g.bond_u, g.bond_v, g.bond_c, adj.indptr, adj.indices, adj.data,
            g.measure, g.distances_from(g.marked, "graph"))
    return sum(a.nbytes for a in kept)


@pytest.mark.parametrize("params", WIDE, ids=["lrp", "exp"])
def test_building_a_window_peaks_within_its_budget_of_the_graph(params):
    # the shared probability table is warm, as for every member but a run's first
    params.bond_probabilities()
    g, peak = _traced_peak(generate._generate_window, params)
    # no window-length copy the graph does not keep: about 1.6x what it holds
    assert peak <= 1.8 * _held_bytes(g)


@pytest.mark.parametrize("params", WIDE, ids=["lrp", "exp"])
def test_the_walks_step_table_takes_one_cumulative_buffer(params):
    g = generate._generate_window(params)
    _, peak = _traced_peak(walk._step_table, g, 0, 64)
    # the cumulative conductances (8 bytes per adjacency entry, 2 entries per
    # bond), the vertex-to-cone map and the cone's rows
    assert peak <= 28 * g.n_bonds


@pytest.mark.parametrize(
    "params",
    [LongRangeParams(2048, 1.0, 2.2, seed=11), LongRangeParams(4096, 1.0, 3.5, seed=12),
     ExpTailParams(4096, 1.0, seed=13)],
)
def test_generated_window_measure_counts_incident_bonds(params):
    g = generate._generate_window(params)
    counts = np.bincount(np.concatenate([g.bond_u, g.bond_v]), minlength=g.n_vertices)
    assert g.measure.tobytes() == counts.astype(np.float64).tobytes()
    assert not g.measure.flags.writeable


def test_graph_metric_counts_hops():
    g = fixture("cycle", 6)
    d = g.distances_from(0, metric="graph")
    by_label = dict(zip(g.labels.tolist(), d.tolist()))
    assert by_label == {0: 0, 1: 1, 2: 2, 3: 3, 4: 2, 5: 1}


def test_line_metric_is_label_distance(line64):
    d = line64.distances_from(0, metric="line")
    assert d[line64.index(-5)] == 5
    assert d[line64.index(64)] == 64


def test_line_metric_requires_line_labels():
    g = Graph([(0, 1, 1.0), (1, 3, 1.0)], marked=0)
    assert not g.is_line_labeled()
    with pytest.raises(InvalidArgumentError, match="line metric"):
        g.distances_from(0, metric="line")


def test_metric_name_is_validated(line64):
    with pytest.raises(InvalidArgumentError, match="metric"):
        line64.distances_from(0, metric="euclid")


def test_ball_is_strict(line64):
    ball = line64.ball(0, 3, metric="line")
    assert sorted(ball.tolist()) == [-2, -1, 0, 1, 2]
    assert line64.volume(0, 3, metric="line") == pytest.approx(10.0)


@given(st.integers(min_value=1, max_value=20))
@settings(max_examples=20, deadline=None)
def test_ball_grows_with_radius(radius):
    g = fixture("line", 32)
    small = set(g.ball(0, radius, metric="line").tolist())
    large = set(g.ball(0, radius + 1, metric="line").tolist())
    assert small <= large


def test_ball_radius_must_be_positive(line64):
    with pytest.raises(InvalidArgumentError, match="radius"):
        line64.ball(0, 0, metric="line")
    for radius in (-1, 2.5, float("inf"), float("nan")):
        with pytest.raises(InvalidArgumentError, match="radius must be a positive integer"):
            line64.ball(0, radius, metric="line")
        with pytest.raises(InvalidArgumentError, match="radius must be a positive integer"):
            line64.volume(0, radius, metric="line")


def test_probe_radius_guard(line64):
    assert line64.half_width() == 64
    assert line64.check_ball(0, 16, "line") == 16
    with pytest.raises(TruncationError, match="quarter of the line-metric distance from 0 "
                                              "to the nearer window end, 64"):
        line64.check_ball(0, 17, "line")
    # about another center the distance to the nearer window end is shorter
    assert line64.check_ball(-40, 6, "line") == 6
    with pytest.raises(TruncationError, match="distance from -40 to the nearer window end, 24"):
        line64.check_ball(-40, 7, "line")


def test_probe_radius_unrestricted_without_truncation():
    g = Graph(PATH, marked=0)
    # the marked vertex is a window end, yet the window of an untruncated graph cuts nothing
    assert g.check_ball(0, 3, "line") == 3
    with pytest.raises(InvalidArgumentError, match="ball of radius 4 covers the whole graph"):
        g.check_ball(0, 4, "line")


def test_with_bond_adds_a_bond():
    g = Graph(PATH, marked=0)
    h = g.with_bond(0, 3, 2.0)
    assert h.n_bonds == 4
    assert (0, 3, 2.0) in list(h.bonds())
    assert h.marked == g.marked
    assert g.n_bonds == 3


def test_with_bond_past_a_truncated_window_widens_it(line64):
    h = line64.with_bond(3, 100)
    assert h.truncated
    assert h.window == (-64, 100)
    assert h.half_width() == 64


def test_labels_past_int64_are_refused(line64):
    with pytest.raises(InvalidArgumentError, match="64-bit integer"):
        line64.with_bond(0, 2**64)
    with pytest.raises(InvalidArgumentError, match="64-bit integer"):
        loads_edge_list(f"# marked=0 window=0,{2**64}\n0 {2**64} 1.0\n")


@pytest.mark.parametrize("label", [2**64 - 1, 2**63 + 1])
def test_unsigned_labels_past_int64_are_refused(label):
    u = np.array([0, label], dtype=np.uint64)
    v = np.array([1, 0], dtype=np.uint64)
    with pytest.raises(InvalidArgumentError, match="64-bit integer"):
        Graph.from_arrays(u, v, np.ones(2), marked=0)


def test_integral_labels_of_any_dtype_are_kept():
    g = Graph([(0.0, 1.0, 1.0), (1, 2, 1.0)], marked=0)
    h = Graph.from_arrays(np.array([0, 1], dtype=np.uint64), np.array([1.0, 2.0]), np.ones(2),
                          marked=0)
    assert g.labels.dtype == h.labels.dtype == np.int64
    assert list(g.labels) == list(h.labels) == [0, 1, 2]


def test_edge_list_round_trip(lrp128):
    text = dumps_edge_list(lrp128)
    h = loads_edge_list(text)
    assert list(h.labels) == list(lrp128.labels)
    assert list(h.bonds()) == list(lrp128.bonds())
    assert h.marked == lrp128.marked
    assert h.window == lrp128.window
    assert h.truncated == lrp128.truncated


def test_edge_list_file_round_trip(tmp_path, line64):
    path = tmp_path / "line.edges"
    write_edge_list(line64, path)
    h = read_edge_list(path)
    assert list(h.bonds()) == list(line64.bonds())
    assert h.truncated


def test_read_edge_list_missing_file(tmp_path):
    with pytest.raises(InvalidArgumentError, match="cannot read"):
        read_edge_list(tmp_path / "nope.edges")


def test_loads_requires_header():
    with pytest.raises(InvalidArgumentError, match="header"):
        loads_edge_list("0 1 1.0\n")


def test_loads_rejects_malformed_line():
    with pytest.raises(InvalidArgumentError, match="malformed"):
        loads_edge_list("# marked=0 window=0,1\n0 1\n")
    with pytest.raises(InvalidArgumentError, match="malformed"):
        loads_edge_list("# marked=0 window=0,1\n0 one 1.0\n")
    for flag in ("yes", "2", "-1", ""):
        with pytest.raises(InvalidArgumentError, match="malformed edge-list header"):
            loads_edge_list(f"# marked=0 window=0,1 truncated={flag}\n0 1 1.0\n")
    assert loads_edge_list("# marked=0 window=0,1 truncated=1\n0 1 1.0\n").truncated


def test_loads_refuses_a_window_that_is_not_the_label_range():
    path_bonds = "".join(f"{x} {x + 1} 1.0\n" for x in range(-2, 2))
    for header in ("# marked=0 window=-100,100 truncated=1\n",
                   "# marked=0 window=-2,3 truncated=1\n",
                   "# marked=0 window=-1,2\n"):
        with pytest.raises(InvalidArgumentError, match="not the label range -2,2"):
            loads_edge_list(header + path_bonds)
    assert loads_edge_list("# marked=0 window=-2,2 truncated=1\n" + path_bonds).window == (-2, 2)


def test_read_edge_list_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"# marked=0 window=0,1\n0 1 \xff\n")
    with pytest.raises(InvalidArgumentError, match="cannot read"):
        read_edge_list(path)


def test_header_defaults_truncated_to_false():
    g = loads_edge_list("# marked=0 window=0,1\n0 1 1.0\n")
    assert not g.truncated


# -- the array constructor -------------------------------------------------


def _assert_same_graph(a, b):
    for field in ("labels", "bond_u", "bond_v", "bond_c", "measure"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field
    for field in ("indptr", "indices", "data"):
        x, y = getattr(a.adjacency(), field), getattr(b.adjacency(), field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field
    assert (a.marked, a.window, a.truncated) == (b.marked, b.window, b.truncated)


def _tuple_twin(g):
    return Graph(list(g.bonds()), marked=g.marked, truncated=g.truncated)


# the fixtures' bonds as tuples, in order
FIXTURE_BONDS = {
    ("parallel_pair", None): [(0, 1), (0, 1)],
    ("path", 3): [(0, 1), (1, 2), (2, 3)],
    ("cycle", 4): [(0, 1), (1, 2), (2, 3), (3, 0)],
    ("binary_tree", 2): [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],
    ("ladder", 3): [(0, 1), (2, 3), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5)],
    ("line", 2): [(-2, -1), (-1, 0), (0, 1), (1, 2)],
}


@pytest.mark.parametrize("name, size", list(FIXTURE_BONDS))
def test_fixtures_match_the_tuple_path(name, size):
    g = fixture(name, size)
    bonds = [(u, v, 1.0) for u, v in FIXTURE_BONDS[name, size]]
    assert list(g.bonds()) == bonds
    _assert_same_graph(g, Graph(bonds, marked=0, truncated=name == "line"))


@pytest.mark.parametrize("seed", range(4))
def test_from_arrays_matches_tuple_path_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    # a random tree on scattered labels plus random extra bonds, some of
    # them parallel, with random conductances
    labels = rng.choice(np.arange(-500, 500), size=60, replace=False)
    order = rng.permutation(60)
    u = [int(labels[order[rng.integers(i)]]) for i in range(1, 60)]
    v = [int(labels[order[i]]) for i in range(1, 60)]
    for _ in range(40):
        a, b = rng.choice(labels, size=2, replace=False)
        u.append(int(a))
        v.append(int(b))
    u += u[:5]
    v += v[:5]
    c = (rng.random(len(u)) * 3 + 1.0).tolist()
    marked = int(labels[0])
    g = Graph.from_arrays(np.asarray(u), np.asarray(v), np.asarray(c), marked=marked)
    _assert_same_graph(g, Graph(list(zip(u, v, c)), marked=marked))
    assert list(g.bonds()) == list(zip(u, v, c))
    h = g.with_bond(u[3], 1000, 2.5)
    _assert_same_graph(h, Graph(list(zip(u, v, c)) + [(u[3], 1000, 2.5)], marked=marked))


@pytest.mark.parametrize(
    "params",
    [LongRangeParams(300, 1.0, 2.2, seed=1), LongRangeParams(500, 1.0, 3.5, seed=2),
     ExpTailParams(400, 0.3, seed=3)],
)
def test_generated_windows_match_tuple_path(params):
    g = generate._generate_window(params)
    _assert_same_graph(g, _tuple_twin(g))
    _assert_same_graph(loads_edge_list(dumps_edge_list(g)), g)
    h = g.with_bond(-3, 7, 0.5)
    _assert_same_graph(h, Graph(list(g.bonds()) + [(-3, 7, 0.5)], marked=0, truncated=True))


@pytest.mark.parametrize("name", list(GAPPED))
def test_gapped_graphs_match_tuple_path(name):
    g, bonds = GAPPED[name]
    assert list(g.bonds()) == bonds
    _assert_same_graph(g, _tuple_twin(g))
    _assert_same_graph(loads_edge_list(dumps_edge_list(g)), g)


@pytest.mark.parametrize(
    "bonds, kwargs, message",
    [
        ([], {}, "at least one bond"),
        ([(0, 1, 1.0), (2, 2, 1.0)], {}, "self-loops"),
        ([(0, 1, 0.0)], {}, "positive and finite"),
        ([(0, 1, -1.0)], {}, "positive and finite"),
        ([(0, 1, float("inf"))], {}, "positive and finite"),
        ([(0, 1, float("nan"))], {}, "positive and finite"),
        (PATH, {"marked": 9}, "marked vertex 9"),
        ([(0, 1, 1.0), (1, 0, 1.0), (5, 6, 1.0)], {}, "connected"),
        ([(0, 1, 0.25), (1, 0, 0.25), (1, 2, 1.0)], {}, "measure >= 1"),
        ([(0, 1, 0.5)], {}, "measure >= 1"),
        ([(0, 1, 1.0), (5, 6, 1.0)], {}, "connected"),
        ([(0, 99999999999999999999, 1.0)], {}, "64-bit integer"),
        ([(-99999999999999999999, 0, 1.0)], {}, "64-bit integer"),
        ([(0.5, 1.7, 1.0), (1.0, 2.0, 1.0)], {}, "labels must be integers"),
    ],
)
def test_from_arrays_raises_as_the_tuple_path(bonds, kwargs, message):
    kwargs = {"marked": 0, **kwargs}
    with pytest.raises(InvalidArgumentError, match=message) as from_tuples:
        Graph(bonds, **kwargs)
    u, v, c = (list(col) for col in zip(*bonds)) if bonds else ([], [], [])
    with pytest.raises(InvalidArgumentError) as from_arrays:
        Graph.from_arrays(u, v, c, **kwargs)
    assert str(from_arrays.value) == str(from_tuples.value)


@pytest.mark.parametrize(
    "u, v, c",
    [([0, 1], [1], [1.0]), ([0], [1], [1.0, 1.0]), ([[0]], [[1]], [[1.0]]), (0, 1, 1.0)],
)
def test_from_arrays_needs_equal_one_dimensional_arrays(u, v, c):
    with pytest.raises(InvalidArgumentError, match="1-D and of equal length"):
        Graph.from_arrays(u, v, c, marked=0)


def test_from_arrays_keeps_its_own_conductances():
    c = np.array([1.0, 2.0])
    g = Graph.from_arrays(np.array([0, 1]), np.array([1, 2]), c, marked=0)
    c[:] = 5.0
    assert g.bond_c.tolist() == [1.0, 2.0]


# -- blocks of the merged adjacency ------------------------------------------


@st.composite
def _block_cases(draw):
    """A random multigraph (a path plus random bonds, some of them parallel,
    in both orientations) and a row list (repeats allowed) and a distinct column
    list of vertex indices, the columns sorted or shuffled."""
    n = draw(st.integers(2, 400))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=40))
    parallel = draw(st.lists(st.integers(0, n - 2), max_size=6))
    u = list(range(n - 1)) + [e[0] for e in extra] + [i + 1 for i in parallel]
    v = list(range(1, n)) + [e[1] for e in extra] + parallel
    c = draw(st.lists(st.floats(1.0, 4.0), min_size=len(u), max_size=len(u)))
    g = Graph.from_arrays(u, v, c, marked=0)
    index = st.integers(0, n - 1)
    if draw(st.booleans()):
        # a few rows: their entries are few beside the window, so the columns are searched
        rows = draw(st.lists(index, max_size=4))
        cols = draw(st.lists(index, max_size=n, unique=True))
    else:
        # every row, some twice: the columns go through the position map
        rows = draw(st.permutations(range(n))) + draw(st.lists(index, max_size=8))
        cols = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    if draw(st.booleans()):
        cols.sort()
    return g, rows, cols


@settings(max_examples=150, deadline=None)
@given(_block_cases())
def test_adjacency_block_is_scipys_selection_byte_for_byte(case):
    g, rows, cols = case
    want = g.adjacency()[rows][:, cols]
    got = g.adjacency_block(rows, cols)
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_adjacency_block_takes_each_branch(monkeypatch):
    """A ball's rows in a long window are searched; a grounded window is mapped by scipy."""
    g = fixture("line", 4096)
    searched = []
    real = np.searchsorted

    def spy(a, v, *args, **kwargs):
        searched.append(np.size(v))
        return real(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    ball = np.arange(4090, 4103)
    g.adjacency_block(ball, ball)
    assert searched == [26]
    keep = np.delete(np.arange(g.n_vertices), 4096)
    g.adjacency_block(keep, keep)
    assert searched == [26]
