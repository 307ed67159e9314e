"""The graph held as CSR arrays: balls built from the arrays, explain runs
that build none of the tuple views, and a 100k-node graph that loads and
explains a node without them."""

import pathlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moexp.io
from moexp import (
    METHODS,
    EnumConfig,
    Model,
    build_graph,
    canonical_order,
    explain_node,
    grad_weights_analytic,
    shapley_values,
)
from moexp.baselines import grow_table
from moexp.cli import main
from moexp.io import graph_to_doc, load_graph, load_model, parse_graph

from oracles import (
    ball_edge_rank,
    ball_incidence,
    make_subgraph,
    node_rank,
    random_graph,
    reference_ball,
    reference_graph,
    restricted_forward,
    same_graph,
)

INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"
VIEWS = {"edges", "adjacency"}


def _tuples(graph):
    """``graph`` rebuilt by the loop oracle, as tuples."""
    return reference_graph(graph.features, list(zip(graph.lo.tolist(), graph.hi.tolist())), graph.labels)


@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_ball_from_arrays_equals_the_ball_from_tuples(seed, hops):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, max_nodes=14, edge_prob=float(rng.choice([0.0, 0.15, 0.3, 0.6])), min_nodes=1)
    v = int(rng.integers(0, graph.node_count))
    ball = canonical_order(graph, v, hops)
    want = reference_ball(_tuples(graph), v, hops)
    views = {"node_rank": node_rank, "incidence": ball_incidence, "edge_rank": ball_edge_rank}
    for name, value in want.items():
        got = views[name](ball) if name in views else getattr(ball, name)
        if isinstance(value, np.ndarray):
            assert got.tobytes() == value.tobytes() and got.shape == value.shape, name
        else:
            assert got == value, name
            assert all(type(x) is int for x in _ints(got)), name
    assert not VIEWS & vars(graph).keys()


def _ints(value):
    if isinstance(value, dict):
        return [*value, *value.values()]
    if isinstance(value, tuple):
        return [x for item in value for x in (_ints(item) if isinstance(item, tuple) else [item])]
    return [value]


def test_balls_built_in_threads_equal_balls_built_in_turn():
    # Threads share the graph; a ball reads its arrays and writes none.
    graph = random_graph(np.random.default_rng(3), max_nodes=60, edge_prob=0.08, min_nodes=60)
    targets = list(range(graph.node_count)) * 4

    def fields(v):
        ball = canonical_order(graph, v, 3)
        return ball.nodes, node_rank(ball), [a.tolist() for a in (ball.indptr, ball.nbr, ball.edge, ball.edge_key)]

    want = [fields(v) for v in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(fields, targets, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize("method", METHODS)
def test_explain_builds_no_view(method, tmp_path, monkeypatch):
    loaded = []
    load_graph = moexp.io.load_graph

    def keep(*args):
        loaded.append(load_graph(*args))
        return loaded[-1]

    monkeypatch.setattr(moexp.io, "load_graph", keep)
    argv = ["explain", "--graph", str(INPUTS / "motif.json"), "--weights", str(INPUTS / "motif_weights.json")]
    argv += ["--edge-weights", str(INPUTS / "motif_edge_weights.json"), "-D", "3"]
    assert main(argv + ["--method", method, "--out", str(tmp_path)]) == 0
    (graph,) = loaded
    assert len(list(tmp_path.glob("node_*.json"))) > 1
    assert not VIEWS & vars(graph).keys()


def test_subgraph_helpers_and_baselines_build_no_view():
    graph, model = load_graph(INPUTS / "motif.json"), load_model(INPUTS / "motif_weights.json")
    ball = canonical_order(graph, 0, 3)
    restricted_forward(model, graph, 0, make_subgraph(graph, 0, ball.edge[: ball.indptr[1]][:2].tolist()))
    grow_table(dict.fromkeys(ball.edge.tolist(), 1.0), ball, 4)
    shapley_values(model, graph, 0)
    grad_weights_analytic(model, ball, 3)
    graph_to_doc(graph)
    assert not VIEWS & vars(graph).keys()


def test_a_graph_of_100k_nodes_loads_and_explains_without_views():
    rng = np.random.default_rng(11)
    n = 100_000
    u, w = rng.integers(0, n, (2, 2 * n))
    keys = np.unique(np.minimum(u, w) * n + np.maximum(u, w))
    keys = keys[keys // n != keys % n]  # no self-loops
    edges = np.stack([keys // n, keys % n], axis=1)
    # Reverse and shuffle the edges: the arrays come out sorted all the same.
    edges = rng.permutation(np.where(rng.random((len(edges), 1)) < 0.5, edges, edges[:, ::-1]))
    graph = build_graph(rng.standard_normal((n, 2)), edges, labels=rng.integers(0, 3, n).tolist())
    assert graph.node_count == n and graph.edge_count == len(keys)
    assert graph.lo.tolist() == (keys // n).tolist() and graph.hi.tolist() == (keys % n).tolist()

    again = parse_graph(graph_to_doc(graph))
    assert same_graph(again, graph)
    for name in ("lo", "hi", "indptr", "nbr_node", "nbr_edge"):
        assert np.array_equal(getattr(again, name), getattr(graph, name)), name
    assert np.array_equal(np.diff(again.indptr), np.bincount(edges.ravel(), minlength=n))

    model = Model(layers=(rng.standard_normal((2, 3)), rng.standard_normal((3, 3))))
    target = int(np.argmax(np.diff(again.indptr)))
    result = explain_node(model, again, target, EnumConfig(max_nodes=3, diameter=2))
    assert result.candidate_count > 1 and result.front is not None
    assert len(result.scorer.enumeration.ball.nodes) < 1000
    assert not VIEWS & (vars(graph).keys() | vars(again).keys())
