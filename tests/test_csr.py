"""The graph held as CSR arrays: balls built from the arrays, explain runs
that build none of the tuple views, and a 100k-node graph that loads and
explains a node without them."""

import json
import pathlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moexp.explain
import moexp.io
import moexp.pipeline
from moexp import (
    METHODS,
    EnumConfig,
    Model,
    build_graph,
    canonical_order,
    explain_node,
    grad_weights_analytic,
    grow_subgraph,
    make_subgraph,
    set_shapley_value,
    shapley_values,
    validate_subgraph,
)
from moexp.cli import main
from moexp.io import graph_to_doc, load_graph, load_model, parse_graph

from oracles import random_graph, reference_ball, reference_graph, restricted_forward

INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"
VIEWS = {"edges", "adjacency", "incidence", "edge_index"}


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
    for name, value in want.items():
        got = getattr(ball, name)
        if isinstance(value, np.ndarray):
            assert got.tobytes() == value.tobytes() and got.shape == value.shape, name
        else:
            assert got == value, name
            assert all(type(x) is int for x in _ints(got)), name
    assert not VIEWS & vars(graph).keys()
    # The ball put back every local id it wrote.
    assert (graph._scratch.local_ids == -1).all()


def _ints(value):
    if isinstance(value, dict):
        return [*value, *value.values()]
    if isinstance(value, tuple):
        return [x for item in value for x in (_ints(item) if isinstance(item, tuple) else [item])]
    return [value]


def test_balls_built_in_threads_equal_balls_built_in_turn():
    # Threads share the graph but not its scratch array of local ids, which
    # a ball fills and clears again.
    graph = random_graph(np.random.default_rng(3), max_nodes=60, edge_prob=0.08, min_nodes=60)
    targets = list(range(graph.node_count)) * 4

    def fields(v):
        ball = canonical_order(graph, v, 3)
        return ball.nodes, ball.node_rank, ball.edge_rank, ball.incidence

    want = [fields(v) for v in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(fields, targets, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want

    def scratch():
        canonical_order(graph, 0, 1)
        return graph._scratch.local_ids

    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(scratch).result(timeout=60) is not scratch()


@pytest.mark.parametrize("method", METHODS)
def test_explain_builds_no_view(method, tmp_path, monkeypatch):
    loaded = []
    load_graph = moexp.io.load_graph

    def keep(path):
        loaded.append(load_graph(path))
        return loaded[-1]

    monkeypatch.setattr(moexp.io, "load_graph", keep)
    argv = ["explain", "--graph", str(INPUTS / "motif.json"), "--weights", str(INPUTS / "motif_weights.json")]
    argv += ["--edge-weights", str(INPUTS / "motif_edge_weights.json"), "-D", "3"]
    assert main(argv + ["--method", method, "--out", str(tmp_path)]) == 0
    (graph,) = loaded
    assert len(list(tmp_path.glob("node_*.json"))) > 1
    assert not VIEWS & vars(graph).keys()


@pytest.mark.parametrize("method", METHODS)
def test_explain_builds_only_named_subgraphs(method, tmp_path, monkeypatch):
    # A run builds a Subgraph only for a node's explanation and
    # counterfactual, once each, and no view of all candidates; a
    # pareto-rank run builds exactly those two per node.
    enumerations, built = [], []
    enumerate_subgraphs = moexp.pipeline.enumerate_subgraphs

    def keep(*args, **kwargs):
        enumerations.append(enumerate_subgraphs(*args, **kwargs))
        return enumerations[-1]

    class Counted(moexp.explain.Subgraph):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(moexp.pipeline, "enumerate_subgraphs", keep)
    monkeypatch.setattr(moexp.explain, "Subgraph", Counted)
    argv = ["explain", "--graph", str(INPUTS / "motif.json"), "--weights", str(INPUTS / "motif_weights.json")]
    argv += ["--edge-weights", str(INPUTS / "motif_edge_weights.json"), "-D", "3"]
    assert main(argv + ["--method", method, "--out", str(tmp_path)]) == 0
    docs = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("node_*.json"))]
    assert len(docs) == len(enumerations) > 1
    named = {
        (doc["node"], tuple(block["edge_ids"]), tuple(block["nodes"]))
        for doc in docs
        for block in (doc["explanation"], doc["counterfactual"])
        if block
    }
    assert len(built) == len(set(built)) and set(built) <= named
    if method == "pareto-rank":
        assert all(doc["counterfactual"] for doc in docs)
        assert len(built) == len(named) == 2 * len(docs)
    for enumeration in enumerations:
        assert not {"subgraphs", "index"} & vars(enumeration).keys()


def test_subgraph_helpers_and_baselines_build_no_view():
    graph, model = load_graph(INPUTS / "motif.json"), load_model(INPUTS / "motif_weights.json")
    ball = canonical_order(graph, 0, 3)
    sub = make_subgraph(graph, 0, [eid for _, eid in ball.incidence[0]][:2])
    assert validate_subgraph(graph, sub) is None
    restricted_forward(model, graph, 0, sub)
    grow_subgraph(dict.fromkeys(ball.edge_rank, 1.0), graph, 0, 4)
    shapley_values(model, graph, 0)
    set_shapley_value(model, graph, 0, sub.node_set[1:2])
    grad_weights_analytic(model, graph, 0, 3)
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
    assert again == graph
    for name in ("lo", "hi", "indptr", "nbr_node", "nbr_edge"):
        assert np.array_equal(getattr(again, name), getattr(graph, name)), name
    assert np.array_equal(np.diff(again.indptr), np.bincount(edges.ravel(), minlength=n))

    model = Model(layers=(rng.standard_normal((2, 3)), rng.standard_normal((3, 3))))
    target = int(np.argmax(np.diff(again.indptr)))
    result = explain_node(model, again, target, EnumConfig(max_nodes=3, diameter=2))
    assert result.candidate_count > 1 and result.front is not None
    assert len(result.ball.nodes) < 1000
    assert not VIEWS & (vars(graph).keys() | vars(again).keys())
