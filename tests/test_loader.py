"""The NumPy graph loader against the entry-by-entry loops it replaced.

``build_graph`` and ``io.parse_graph`` must build the graph the loops in
``tests/oracles.py`` build, and on bad input raise the same exception type
with the same text, which names the first offending entry.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moexp import build_graph
from moexp.io import FormatError, parse_graph

from oracles import degree, incidence, reference_graph, reference_parse_graph, same_graph

# Edge items that are not plain in-range ints: int() reads some of them
# (bools, floats, numeric strings, huge ints) and fails on the rest.
ODD_ITEMS = (True, False, 1.0, 1.5, -0.5, "1", "x", None, [0], 2**70, float("nan"), float("inf"))
# Edge entries that are not (u, w) pairs.
ODD_ENTRIES = ([0], [0, 1, 1], "ab", {"a": 1}, 5, [])
# Feature values that are not a row of the graph's width.
ODD_ROWS = ([], 3.0, [[0.5]], "x", None, [1.0, "a"], [0.0, 0.0, 0.0, 0.0], [True], ["1.5"], [10**400])
# Labels that are not JSON integers or null.
ODD_LABELS = (1.7, 2.0, "2", "x", True, False, [1])
# "directed" values that are not JSON booleans.
ODD_DIRECTED = (None, 0, 1, "no", "false", [])


def outcome(fn, *args):
    """The graph ``fn`` returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # any exception: its type and text are compared
        return type(exc), str(exc)


def assert_same(got, expected):
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert not isinstance(got, tuple), got
    assert_matches_reference(got, expected)


VIEWS = {"edges", "adjacency"}


def assert_matches_reference(got, expected):
    """``got``'s arrays and views hold what ``expected``'s tuples hold, field by field."""
    assert got.node_count == expected.node_count
    assert got.labels == expected.labels
    # Python ints or None: 2.0 == 2 and True == 1 would hide a label left unread.
    assert list(map(type, got.labels or ())) == list(map(type, expected.labels or ()))
    assert got.features.dtype == expected.features.dtype
    np.testing.assert_array_equal(got.features, expected.features)
    # The arrays, read off the tuples; loading built no view.
    assert not VIEWS & vars(got).keys()
    arrays = (got.lo, got.hi, got.indptr, got.nbr_node, got.nbr_edge)
    assert all(a.dtype == np.intp and a.ndim == 1 and not a.flags.writeable for a in arrays)
    assert got.lo.tolist() == [u for u, _ in expected.edges]
    assert got.hi.tolist() == [w for _, w in expected.edges]
    assert got.indptr.tolist() == list(itertools.accumulate(map(len, expected.adjacency), initial=0))
    assert got.nbr_node.tolist() == [w for row in expected.incidence for w, _ in row]
    assert got.nbr_edge.tolist() == [eid for row in expected.incidence for _, eid in row]
    assert got.edge_count == len(expected.edges)
    assert [degree(got, v) for v in range(got.node_count)] == list(map(len, expected.adjacency))
    # The views, built on first use.
    assert got.edges == expected.edges
    assert got.adjacency == expected.adjacency
    assert incidence(got) == expected.incidence
    assert VIEWS <= vars(got).keys()
    # Python ints throughout, as json and the documents need.
    ids = [x for e in got.edges for x in e] + [x for row in got.adjacency for x in row]
    assert all(type(x) is int for x in ids)


@st.composite
def edge_entries(draw, n):
    """Edges of an n-node graph: mostly pairs of ids near 0..n-1 in either
    orientation, which gives duplicates and self-loops, plus odd items and
    entries that are not pairs."""
    entries = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["pair"] * 8 + ["range", "item", "entry"]))
        u, w = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "range":
            u = draw(st.sampled_from([-1, -3, n, n + 2]))
        elif kind == "item":
            u = draw(st.sampled_from(ODD_ITEMS))
        if kind == "entry":
            entries.append(draw(st.sampled_from(ODD_ENTRIES)))
        else:
            entries.append(draw(st.sampled_from([[u, w], [w, u], (u, w)])))
    return entries


# Feature values as json gives them: floats and ints, mixed in a row, and
# an int that rounds to a float (2**53 + 1 reads as 2**53).
FEATURE_VALUES = st.one_of(st.floats(-10, 10), st.integers(-10, 10), st.just(2**53 + 1))


@st.composite
def feature_rows(draw, n):
    dim = draw(st.integers(1, 3))
    rows = [draw(st.lists(FEATURE_VALUES, min_size=dim, max_size=dim)) for _ in range(n)]
    if draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, n - 1))] = draw(st.sampled_from(ODD_ROWS))
    return rows


@st.composite
def raw_inputs(draw):
    """``build_graph`` arguments, the features and edges sometimes as NumPy arrays."""
    n = draw(st.integers(1, 6))
    features = draw(feature_rows(n))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        features = np.array(draw(st.lists(st.floats(-10, 10), min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    edges = draw(edge_entries(n))
    if draw(st.integers(0, 3)) == 0:
        dtype = draw(st.sampled_from([np.int32, np.int64, np.uint8, np.float64, bool]))
        ids = draw(st.lists(st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)), max_size=8))
        edges = np.array(ids, dtype=dtype).reshape(-1, 2)
    labels = draw(st.one_of(st.none(), st.lists(st.sampled_from([0, 1, None, 2.0]), min_size=n, max_size=n)))
    return features, edges, labels


@st.composite
def documents(draw):
    """Graph documents as json gives them: node ids a shuffled 0..n-1, now and
    then a duplicate, a gap, or an id that is not an int."""
    n = draw(st.integers(1, 6))
    features = draw(feature_rows(n))
    # In order, as graph_to_doc writes them, half the time: the checks of
    # such a list take a short path, which must accept only valid lists.
    ids = list(range(n)) if draw(st.booleans()) else draw(st.permutations(range(n)))
    if draw(st.integers(0, 4)) == 0:
        ids[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0, n, n + 3, True, 1.0, "1", None]))
    nodes = [{"id": i, "features": features[i if type(i) is int and 0 <= i < n else 0]} for i in ids]
    if draw(st.booleans()):
        for node in nodes:
            node["label"] = draw(st.sampled_from([0, 1, None]))
        if draw(st.integers(0, 4)) == 0:
            nodes[draw(st.integers(0, n - 1))]["label"] = draw(st.sampled_from(ODD_LABELS))
    if draw(st.integers(0, 9)) == 0:
        nodes[draw(st.integers(0, n - 1))].pop(draw(st.sampled_from(["id", "features"])))
    directed = draw(st.sampled_from([True, *ODD_DIRECTED])) if draw(st.integers(0, 4)) == 0 else False
    return {"directed": directed, "nodes": nodes, "edges": draw(edge_entries(n))}


@st.composite
def valid_graphs(draw):
    """``build_graph`` arguments of a valid graph: edges in any order and
    orientation, often leaving nodes isolated."""
    n = draw(st.integers(1, 9))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [draw(st.sampled_from([(u, w), (w, u)])) for u, w in draw(st.permutations(edges))]
    return [[float(v)] for v in range(n)], edges


@given(valid_graphs())
@example(([[0.0]], []))  # a single node
@example(([[0.0]] * 4, []))  # no edges
@example(([[0.0]] * 5, [(3, 1), (1, 2)]))  # isolated first, middle and last nodes
@settings(max_examples=300, deadline=None)
def test_graph_arrays_and_views_equal_the_loop_oracle(inputs):
    assert_matches_reference(build_graph(*inputs), reference_graph(*inputs))


@given(raw_inputs())
@settings(max_examples=400, deadline=None)
def test_build_graph_matches_loop_oracle(inputs):
    assert_same(outcome(build_graph, *inputs), outcome(reference_graph, *inputs))


def _doc(features, edges):
    return {"nodes": [{"id": i, "features": row} for i, row in enumerate(features)], "edges": edges}


@given(documents())
# Documents that the flat columns do not convert, which build_graph reads
# as nested rows: a ragged row next to valid rows, an all-empty feature
# column, an endpoint beyond int64 and an int feature beyond the float
# range; then int rows, which they do.
@example(_doc([[0.0, 1.0], [2.0], [3.0, 4.0]], [[0, 1]]))
@example(_doc([[], [], []], [[0, 1]]))
@example(_doc([[0.0], [1.0]], [[0, 1], [0, 2**70]]))
@example(_doc([[0.0], [10**400]], [[0, 1]]))
@example(_doc([[0.0, 1], [2**53 + 1, -3]], [[1, 0]]))
@settings(max_examples=400, deadline=None)
def test_parse_graph_matches_loop_oracle(doc):
    assert_same(outcome(parse_graph, doc), outcome(reference_parse_graph, doc))


def test_documents_outside_the_flat_columns_keep_their_errors():
    assert outcome(parse_graph, _doc([[0.0, 1.0], [2.0], [3.0, 4.0]], [[0, 1]])) == (
        FormatError, "feature length mismatch at node 1: 1 != 2"
    )
    assert outcome(parse_graph, _doc([[], [], []], [[0, 1]])) == (FormatError, "feature vectors must be non-empty")
    assert outcome(parse_graph, _doc([[0.0], [1.0]], [[0, 1], [0, 2**70]])) == (
        FormatError, f"node id out of range in edge (0, {2**70})"
    )
    assert outcome(parse_graph, _doc([[0.0], [10**400]], [[0, 1]])) == (FormatError, "nodes[1]: features must be finite")
    assert parse_graph(_doc([[0.0, 1], [2**53 + 1, -3]], [[1, 0]])).features.tolist() == [[0.0, 1.0], [2.0**53, -3.0]]


def test_loader_reports_the_first_offending_edge():
    feats = [[0.0]] * 3
    # An unreadable entry after an out-of-range one: the range error wins.
    assert outcome(build_graph, feats, [[0, 1], [0, 5], ["x", 1]]) == (
        ValueError, "node id out of range in edge (0, 5)"
    )
    # An unreadable entry before a duplicate: int() raises first.
    assert outcome(build_graph, feats, [[0, 1], ["x", 1], [1, 0]]) == (
        ValueError, "invalid literal for int() with base 10: 'x'"
    )
    assert outcome(build_graph, feats, [[0, 1], [2, 1], [1, 0], [1, 1]]) == (ValueError, "duplicate edge (1, 0)")
    assert outcome(build_graph, feats, [[0, 1], [2, 2], [1, 0]]) == (ValueError, "self-loop at node 2 not allowed")
    # Floats are truncated by int(), as before: (0.5, 2) is the edge (0, 2).
    assert build_graph(feats, [[0.5, 2]]).edges == ((0, 2),)


def test_loader_matches_oracle_on_a_synthetic_graph():
    from moexp.io import graph_to_doc
    from moexp.synth import synth_graph

    graph, _ = synth_graph("erdos", {"nodes": 300, "p": 0.03, "max_degree": 8, "classes": 3}, 5)
    doc = graph_to_doc(graph)
    # Reverse half the edges and shuffle them: the graph must not change.
    rng = np.random.default_rng(0)
    doc["edges"] = [e[::-1] if k % 2 else e for k, e in enumerate(doc["edges"])]
    doc["edges"] = [doc["edges"][k] for k in rng.permutation(len(doc["edges"]))]
    assert_same(parse_graph(doc), reference_parse_graph(doc))
    assert same_graph(parse_graph(doc), graph)
