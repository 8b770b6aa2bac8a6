import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resistive_walk import generate
from resistive_walk.errors import InvalidArgumentError, TruncationError
from resistive_walk.generate import ExpTailParams, LongRangeParams, fixture
from resistive_walk.graph import (
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


def _searchsorted_indices(labels, wanted):
    """Reference lookup: one binary search per label, then a check."""
    wanted = np.asarray(wanted).reshape(-1)
    idx = np.searchsorted(labels, wanted)
    found = labels[np.minimum(idx, labels.size - 1)] == wanted
    if not found.all():
        raise InvalidArgumentError(f"vertex {wanted[np.argmin(found)]} is not in the graph")
    return idx.astype(np.int64)


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
    line = fixture("line", 64)
    line_bonds = [(x, x + 1, 1.0) for x in range(-64, 64)]
    return {
        "sparse-edge-list": (loads_edge_list(text), sparse),
        "far-bond": (line.with_bond(3, 10**6, 1.5), line_bonds + [(3, 10**6, 1.5)]),
        "far-bond-below": (line.with_bond(-3, -(10**9)), line_bonds + [(-3, -(10**9), 1.0)]),
        "negative": (Graph(negative, marked=-7), negative),
        "int64-extremes": (Graph(extremes, marked=0), extremes),
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
    for wanted in _queries(g):
        got = _lookup_or_message(g.indices, wanted)
        want = _lookup_or_message(_searchsorted_indices, g.labels, wanted)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
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


def test_probe_radius_guard(line64):
    assert line64.half_width() == 64
    line64.check_probe_radius(16)
    with pytest.raises(TruncationError, match="quarter"):
        line64.check_probe_radius(17)


def test_probe_radius_unrestricted_without_truncation():
    g = Graph(PATH, marked=0)
    g.check_probe_radius(100)


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
