"""Per-target balls: every per-node pass, rank and scan reads only the
target's ball, and gives the whole graph's results bit for bit."""

import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moexp.baselines
import moexp.gcn
from moexp import (
    ACTIVATIONS,
    METHODS,
    CandidateScorer,
    EnumConfig,
    Enumeration,
    MessagePerturbation,
    Model,
    build_graph,
    canonical_order,
    confounder_set,
    enumerate_subgraphs,
    explain_node,
    explain_scored,
    forward,
    forward_hidden,
    grad_weights_analytic,
    grad_weights_fd,
    neighborhood_edge_ids,
    node_embeddings,
    perturb_message,
    random_weights,
    run_sanity_sweep,
)
from moexp.baselines import grow_table
from moexp.cli import main
from moexp.io import graph_to_doc, load_edge_weights, load_graph, load_model, save_model
from moexp.synth import synth_graph

from conftest import enumerate_at, forward_at
from oracles import (
    ball_hidden,
    ball_incidence,
    explanation,
    feature_dim,
    full_canonical_order,
    full_distances,
    full_states,
    incidence,
    node_rank,
    random_graph,
    reference_ball,
)

INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"


def _model(rng, depth, activation, self_loop, mean_aggregate, final_activation, feature_dim=2):
    dims = [feature_dim] + [int(rng.integers(1, 5)) for _ in range(depth - 1)] + [int(rng.integers(2, 4))]
    layers = tuple(rng.standard_normal((dims[i], dims[i + 1])) for i in range(depth))
    return Model(layers, activation, self_loop, mean_aggregate, final_activation)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.sampled_from(ACTIVATIONS),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_ball_pass_equals_full_pass_bitwise(seed, depth, activation, self_loop, mean, final, masked, extra):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=12, edge_prob=0.3, min_nodes=1)
    m = _model(rng, depth, activation, self_loop, mean, final)
    v = int(rng.integers(0, g.node_count))
    mask = {eid: float(rng.random()) for eid in range(g.edge_count) if rng.random() < 0.5} if masked else None
    message = rng.standard_normal(m.layers[-1].shape[0]) if extra else None
    want = full_states(m, g, depth, mask, message, v)[v].tobytes()
    # A larger ball gives the same bits. The package has no masked pass:
    # masked draws check the oracles' masked ball loop, which grad-fd's
    # damped passes are checked against.
    ball = canonical_order(g, v, depth + int(rng.integers(1, 3)))
    assert ball_hidden(m, g, v, mask, message).tobytes() == want
    assert ball_hidden(m, g, v, mask, message, ball).tobytes() == want
    if mask is None:
        assert forward_hidden(m, canonical_order(g, v, depth), extra_message=message).tobytes() == want
        assert forward_hidden(m, ball, extra_message=message).tobytes() == want


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.one_of(st.integers(1, 4), st.sampled_from([16, 33])), min_size=1, max_size=3),
    st.sampled_from(ACTIVATIONS),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_reference_pass_equals_the_ball_loop_bitwise(seed, dims, activation, self_loop, mean, final, isolated, extra):
    # Layer inputs of 16 or 33 columns, where a product's rounding can
    # depend on its row count, and isolated targets in graphs of several
    # nodes, whose one-row products are padded as the whole graph's are.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    v = int(rng.integers(0, n))
    if isolated:
        edges = [e for e in edges if v not in e]
    g = build_graph(rng.standard_normal((n, dims[0])), edges)
    dims = dims + [int(rng.integers(2, 4))]
    layers = tuple(rng.standard_normal((dims[i], dims[i + 1])) for i in range(len(dims) - 1))
    m = Model(layers, activation, self_loop, mean, final)
    message = rng.standard_normal(dims[-2]) if extra else None
    ball = canonical_order(g, v, m.depth + int(rng.integers(0, 3)))
    want = ball_hidden(m, g, v, extra_message=message).tobytes()
    assert forward_hidden(m, canonical_order(g, v, m.depth), extra_message=message).tobytes() == want
    assert forward_hidden(m, ball, extra_message=message).tobytes() == want


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from(ACTIVATIONS), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_node_embeddings_rows_equal_full_pass_bitwise(seed, depth, activation, self_loop, mean):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=12, edge_prob=0.3, min_nodes=1)
    m = _model(rng, depth, activation, self_loop, mean, False)
    v = int(rng.integers(0, g.node_count))
    limit = int(rng.integers(0, depth + 1))
    ball = canonical_order(g, v, limit + int(rng.integers(0, 3)))
    rows = node_embeddings(m, ball, limit)
    full = full_states(m, g, limit)
    assert len(rows) == ball.within[ball.hops - limit]
    for i, u in enumerate(ball.nodes[: len(rows)]):
        assert rows[i].tobytes() == full[u].tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_ball_is_the_bounded_canonical_order(seed, hops):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=12, edge_prob=0.3, min_nodes=1)
    v = int(rng.integers(0, g.node_count))
    ball = canonical_order(g, v, hops)
    full = full_canonical_order(g, v)
    dist = full_distances(g, v)
    inside = sorted((u for u, d in dist.items() if d <= hops), key=lambda u: full.node_rank[u])
    assert list(ball.nodes) == inside
    ranks = node_rank(ball)
    assert ranks == {u: i for i, u in enumerate(inside)}
    assert list(ball.distance) == [dist[u] for u in inside]
    assert list(ball.within) == [sum(d <= r for d in ball.distance) for r in range(hops + 1)]
    assert np.array_equal(ball.features, g.features[inside])
    runs = ball_incidence(ball)
    assert runs == reference_ball(g, v, hops)["incidence"]
    for i, u in enumerate(inside):
        in_ball = [(w, eid) for w, eid in incidence(g)[u] if w in dist and dist[w] <= hops]
        assert [(ball.nodes[j], eid) for j, eid in runs[i]] == in_ball
    assert ball.indptr[-1] == len(ball.nbr) == len(ball.edge) == len(ball.edge_key)
    # Both entries of an edge carry its key, no two edges share one, and the
    # keys sort the edges as the whole graph's canonical order does.
    keyed = sorted(set(zip(ball.edge_key.tolist(), ball.edge.tolist())))
    assert len({key for key, _ in keyed}) == len(keyed)
    edges = [eid for eid, (a, b) in enumerate(g.edges) if a in ranks and b in ranks]
    assert [eid for _, eid in keyed] == sorted(edges, key=lambda e: full.edge_rank[e])
    for a in (ball.indptr, ball.nbr, ball.edge, ball.edge_key):
        assert a.dtype == np.intp and not a.flags.writeable


def _stages(model, config) -> dict:
    """Each stage that takes a target's ball, as (the hops it reads, a call
    on a ball). The scorer reads its ball through its enumeration, and
    ``grow_table`` grows over weights on every edge of the graph."""
    d, c, depth = config.diameter, config.max_nodes, model.depth

    def grown(ball):
        weights = np.random.default_rng(ball.graph.edge_count).random(ball.graph.edge_count)
        return grow_table(dict(enumerate(weights.tolist())), ball, c)

    def scored(ball):
        scorer = CandidateScorer(model, enumerate_subgraphs(ball, config))
        return np.append(scorer.full_distribution, [scorer.candidate(i) for i in range(len(scorer.enumeration))])

    return {
        "forward": (depth, lambda ball: forward(model, ball)),
        "forward_hidden": (depth, lambda ball: forward_hidden(model, ball)),
        "enumerate_subgraphs": (d, lambda ball: enumerate_subgraphs(ball, config)),
        "confounder_set": (d, lambda ball: confounder_set(ball, d, range(0, ball.graph.node_count, 2))),
        "neighborhood_edge_ids": (d, lambda ball: neighborhood_edge_ids(ball, d)),
        "random_weights": (d, lambda ball: random_weights(ball, d, 7)),
        "grow_table": (c - 1, grown),
        "grad_weights_analytic": (max(d, depth), lambda ball: grad_weights_analytic(model, ball, d)),
        "grad_weights_fd": (max(d, depth), lambda ball: grad_weights_fd(model, ball, 1e-4, d)),
        "perturb_message": (depth, lambda ball: perturb_message(model, ball, 1.0, 1.0, 3)),
        "CandidateScorer": (d, scored),
    }


def _outcome(run, ball):
    """What ``run(ball)`` gives, as comparable bits, or its exception text."""
    try:
        value = run(ball)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, Enumeration):
        arrays = (value.parent, value.sizes, value.edge_ids, value.node_ids, value.rows, value.depth, value.slots)
        return value.config, [a.tobytes() for a in arrays]
    if isinstance(value, MessagePerturbation):
        return value.message.tobytes(), value.distribution.tobytes()
    if isinstance(value, dict):
        return sorted((k, float(v).hex()) for k, v in value.items())
    return sorted(value)


_PATH = build_graph([[float(i % 3)] for i in range(7)], [(i, i + 1) for i in range(6)])
_PATH_MODEL = Model(layers=(np.array([[1.0]]), np.array([[1.0, -0.5]])), activation="sigmoid")
_PATH_CONFIG = EnumConfig(max_nodes=4, diameter=3)
_STAGE_NAMES = sorted(_stages(_PATH_MODEL, _PATH_CONFIG))


@pytest.mark.parametrize("stage", _STAGE_NAMES)
def test_a_ball_one_hop_short_of_a_stage_is_rejected(stage):
    # On the path 0-1-...-6 from node 0, a ball of h hops holds nodes 0..h.
    hops, run = _stages(_PATH_MODEL, _PATH_CONFIG)[stage]
    assert _outcome(run, canonical_order(_PATH, 0, hops + 1)) == _outcome(run, canonical_order(_PATH, 0, hops))
    message = f"ball of node 0 with {hops - 1} hops cannot serve node 0 at {hops} hops"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(canonical_order(_PATH, 0, hops - 1))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.builds(EnumConfig, st.integers(1, 4), st.integers(1, 3)),
    st.sampled_from(_STAGE_NAMES),
)
@settings(max_examples=200, deadline=None)
def test_a_deeper_ball_gives_every_stage_the_same_bits(seed, depth, config, stage):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, max_nodes=9, edge_prob=0.35, min_nodes=1)
    model = _model(rng, depth, "relu", True, False, False)
    v = int(rng.integers(0, graph.node_count))
    hops, run = _stages(model, config)[stage]
    want = _outcome(run, canonical_order(graph, v, hops))
    for extra in (1, 2):
        assert _outcome(run, canonical_order(graph, v, hops + extra)) == want, extra
    if stage == "grow_table":
        # A shallower ball grows the same tree, or names the hop it lacks.
        for h in range(hops):
            got = _outcome(run, canonical_order(graph, v, h))
            assert got in (want, f"ValueError: ball of node {v} with {h} hops cannot serve node {v} at {h + 1} hops")


@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.sampled_from(ACTIVATIONS), st.booleans())
@settings(max_examples=60, deadline=None)
def test_scorer_reference_is_the_full_pass_bitwise(seed, depth, activation, mean):
    # The scorer's pass runs on the enumeration's ball when it has the
    # model's depth in hops and on a new ball otherwise: at diameter 1 the
    # ball is shallower than the model, from diameter ``depth`` on as deep.
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, max_nodes=9)
    model = _model(rng, depth, activation, True, mean, False, feature_dim(graph))
    v = int(rng.integers(0, graph.node_count))
    want = forward_at(model, graph, v).tobytes()
    for diameter in range(1, depth + 2):
        enumeration = enumerate_at(graph, v, EnumConfig(max_nodes=3, diameter=diameter))
        assert CandidateScorer(model, enumeration).full_distribution.tobytes() == want, diameter


def test_explain_scored_rejects_a_ball_too_shallow_for_the_method(chain_graph, chain_model):
    # The two-layer model's pass needs 2 hops, and a grown tree 3 at C = 4.
    config = EnumConfig(max_nodes=4, diameter=1)
    shallow = CandidateScorer(chain_model, enumerate_at(chain_graph, 2, config))
    with pytest.raises(ValueError, match="ball of node 2 with 1 hops cannot serve node 2 at 2 hops"):
        explain_scored(shallow, "pareto-rank", 42, False, None)
    search = CandidateScorer(chain_model, enumerate_at(chain_graph, 2, EnumConfig(max_nodes=4, diameter=2)))
    with pytest.raises(ValueError, match="ball of node 2 with 2 hops cannot serve node 2 at 3 hops"):
        explain_scored(search, "external-weights", 42, False, {})


def _with_far_path(graph, extra: int):
    """``graph`` plus a disjoint path over ``extra`` new nodes, which take the
    higher ids, so every old node and edge keeps its id."""
    n = graph.node_count
    features = np.vstack([graph.features, np.ones((extra, feature_dim(graph)))])
    edges = list(graph.edges) + [(n + i, n + i + 1) for i in range(extra - 1)]
    labels = None if graph.labels is None else list(graph.labels) + [None] * extra
    return build_graph(features, edges, labels=labels)


def _arrays(result):
    front = result.front
    parts = [result.full_distribution, result.scorer.distributions[result.explanation]]
    if front is not None:
        parts += [front.e, front.c, front.relevance]
    return [p.tobytes() for p in parts] + [explanation(result), front is None]


def test_explain_node_does_not_depend_on_graph_size(monkeypatch):
    small = load_graph(INPUTS / "motif.json")
    model = load_model(INPUTS / "motif_weights.json")
    weights = load_edge_weights(INPUTS / "motif_edge_weights.json")
    large = _with_far_path(small, 20_000)
    assert large.edges[: small.edge_count] == small.edges
    seen = []
    kernel = moexp.gcn.layers_hidden

    def counting(model, h, hops, *args, **kwargs):
        # Node rows per target: a batch of trees holds one target per tree,
        # and a ball pass over all of a ball's nodes one per output row.
        seen.append(len(h) / np.count_nonzero(hops == 0))
        return kernel(model, h, hops, *args, **kwargs)

    monkeypatch.setattr(moexp.gcn, "layers_hidden", counting)
    config = EnumConfig(max_nodes=4, diameter=2)
    for target in range(small.node_count):
        for method in METHODS:
            kwargs = dict(method=method, seed=target, edge_weights=weights)
            want = explain_node(model, small, target, config, **kwargs)
            seen.clear()
            got = explain_node(model, large, target, config, **kwargs)
            assert _arrays(got) == _arrays(want), (target, method)
            assert max(seen) <= len(got.scorer.enumeration.ball.nodes) <= small.node_count


_CONFIGS = st.builds(EnumConfig, st.integers(1, 4), st.integers(1, 3))


@given(_CONFIGS, _CONFIGS, st.sampled_from(METHODS), st.integers(0, 9))
@example(EnumConfig(4, 3), EnumConfig(3, 3), "pareto-rank", 0)
@example(EnumConfig(4, 3), EnumConfig(3, 3), "grad-fd", 0)
@settings(max_examples=80, deadline=None)
def test_an_enumeration_serves_only_the_config_it_was_built_under(built, other, method, target):
    # explain_scored reads the bounds from the scorer's table, so a table
    # built under ``built`` on a ball deep enough for ``other`` too selects
    # as explain_node does under ``built``.
    graph, model = load_graph(INPUTS / "motif.json"), load_model(INPUTS / "motif_weights.json")
    weights = load_edge_weights(INPUTS / "motif_edge_weights.json")
    hops = max(built.diameter, other.diameter, built.max_nodes - 1, other.max_nodes - 1, model.depth)
    scorer = CandidateScorer(model, enumerate_subgraphs(canonical_order(graph, target, hops), built))
    want = _arrays(explain_node(model, graph, target, built, method=method, seed=target, edge_weights=weights))
    assert _arrays(explain_scored(scorer, method, target, False, weights)) == want


def _overflow_inputs(tmp_path):
    graph, model = synth_graph("erdos", {"nodes": 200, "p": 0.02}, 7)
    doc = graph_to_doc(graph)
    doc["nodes"][1]["features"] = [1e308] * feature_dim(graph)
    (tmp_path / "g.json").write_text(json.dumps(doc))
    save_model(model, tmp_path / "w.json")
    return graph, model


def test_reference_pass_reads_only_the_models_reach():
    # On the path 0-1-2-3, node 2's own sum 1e308 + 1e308 overflows. A
    # 2-layer pass at node 0 reads node 2 but never computes it, though
    # the ball of a 3-hop search holds node 3 too.
    graph = build_graph([[1.0], [1.0], [1e308], [1e308]], [(0, 1), (1, 2), (2, 3)])
    model = Model(layers=(np.array([[1.0]]), np.array([[1.0, -1.0]])))
    config = EnumConfig(diameter=3)
    result = explain_node(model, graph, 0, config, method="pareto-rank")
    assert result.full_distribution.tolist() == [1.0, 0.0]
    # grad-analytic reads the first layer's states of the target's
    # neighbours only, not of every node within D - 1 hops.
    result = explain_node(model, graph, 0, config, method="grad-analytic")
    assert result.full_distribution.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("method", ["pareto-rank", "grad-fd", "grad-analytic"])
def test_overflow_fails_only_targets_whose_ball_holds_it(method, tmp_path):
    graph, model = _overflow_inputs(tmp_path)
    dist = full_distances(graph, 1)
    near = min(v for v, d in dist.items() if d == 1)
    assert dist[0] > model.depth and dist[3] > model.depth
    argv = ["explain", "--graph", str(tmp_path / "g.json"), "--weights", str(tmp_path / "w.json")]
    argv += ["--method", method, "--out", str(tmp_path / "out"), "--targets", f"0,3,{near}"]
    assert main(argv) == 1
    for v in (0, 3):
        written = json.loads((tmp_path / "out" / f"node_{v}.json").read_text())
        assert "error" not in written and written["node"] == v
    written = json.loads((tmp_path / "out" / f"node_{near}.json").read_text())
    assert written["error"] == f"ValueError: forward pass at node {near}: overflow encountered in add"


def test_overflow_beyond_every_trees_reach_leaves_the_node_explained(tmp_path):
    # Node 1's overflow is two hops from node 11. A restricted pass computes
    # at layer l only the tree nodes within L - 1 - l hops of the target, so
    # no tree holding node 1 computes node 1's own sum.
    graph, model = _overflow_inputs(tmp_path)
    assert full_distances(graph, 1)[11] == 2 == model.depth
    # What the gradient methods wrote before restricted passes were batched.
    unchanged = {
        "grad-fd": ([36, 52, 53], [36, 52], 0.6528832896644932),
        "grad-analytic": ([36, 52, 55], [36, 52], 0.6386296621556462),
    }
    argv = ["explain", "--graph", str(tmp_path / "g.json"), "--weights", str(tmp_path / "w.json"), "--targets", "11"]
    for method in ("pareto-rank", "balanced", "shapley", *unchanged):
        out = tmp_path / method
        assert main(argv + ["--method", method, "--out", str(out)]) == 0
        written = json.loads((out / "node_11.json").read_text())
        assert "error" not in written and written["node"] == 11 and written["pair_count"] > 0
        assert np.isfinite(written["explanation"]["distribution"]).all()
        picked = (written["explanation"]["edge_ids"], written["counterfactual"]["edge_ids"], written["cf_relevance"])
        assert picked == unchanged.get(method, picked)


def test_sanity_sweep_enumerates_once_per_node(monkeypatch):
    graph, model = synth_graph("planted-motif", {}, 7)
    calls = []
    for module in (moexp.explain, moexp.pipeline, moexp.analysis, moexp.baselines):
        original = module.__dict__.get("enumerate_subgraphs")
        if original is not None:
            def counted(*args, _original=original, **kwargs):
                calls.append(args[0].target)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, "enumerate_subgraphs", counted)
    nodes = [0, 2, 5]
    for mode in ("message", "weights"):
        calls.clear()
        records = run_sanity_sweep(model, graph, nodes, mode, steps=4, seed=3)
        assert calls == nodes
        assert len(records) == 4 * len(nodes)
