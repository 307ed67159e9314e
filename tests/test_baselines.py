from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moexp.baselines
import moexp.gcn
from moexp import (
    CandidateScorer,
    EnumConfig,
    Model,
    build_graph,
    enumerate_subgraphs,
    explain_node,
    forward,
    grad_weights_analytic,
    grad_weights_fd,
    grow_subgraph,
    make_subgraph,
    neighborhood_edge_ids,
    random_weights,
    set_shapley_value,
    shapley_selection,
    shapley_values,
)

from moexp.baselines import FD_BATCH_ENTRIES

from oracles import random_graph, random_model, reference_grad_weights_fd, shapley_oracle


def star_graph():
    return build_graph([[1.0], [0.0], [0.0], [0.0]], [(0, 1), (0, 2), (0, 3)])


def three_chain():
    # b(0) - a(1) - i(2)
    return build_graph([[0.5], [0.25], [1.0]], [(0, 1), (1, 2)])


def induced_tree(graph, target, nodes):
    inside = set(nodes)
    eids = [e for e, (u, w) in enumerate(graph.edges) if u in inside and w in inside]
    return make_subgraph(graph, target, eids)


def simulatability_of(model, graph, target):
    """nu(nodes): the scored simulatability of the tree induced on the nodes."""
    enum = enumerate_subgraphs(graph, target)
    scorer = CandidateScorer(model, graph, enum)
    return lambda nodes: scorer.candidate(enum.index[induced_tree(graph, target, nodes).edge_set])


def test_neighborhood_edge_ids_respects_radius():
    g = build_graph([[0.0]] * 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert neighborhood_edge_ids(g, 0, 1) == [0]
    assert neighborhood_edge_ids(g, 0, 2) == [0, 1]
    assert neighborhood_edge_ids(g, 2, 1) == [1, 2]
    assert neighborhood_edge_ids(g, 0, 4) == [0, 1, 2, 3]


def test_random_weights_deterministic_and_in_range():
    g = star_graph()
    a = random_weights(g, 0, EnumConfig(diameter=1), seed=9)
    b = random_weights(g, 0, EnumConfig(diameter=1), seed=9)
    c = random_weights(g, 0, EnumConfig(diameter=1), seed=10)
    assert a == b
    assert a != c
    assert set(a) == {0, 1, 2}
    assert all(0.0 <= v < 1.0 for v in a.values())


def test_random_weights_isolated_target_empty():
    g = build_graph([[0.0], [0.0], [0.0]], [(1, 2)])
    assert random_weights(g, 0, EnumConfig(), seed=0) == {}


def test_grow_subgraph_follows_heaviest_edges():
    g = star_graph()
    weights = {0: 0.9, 1: 0.5, 2: 0.3}
    assert grow_subgraph(weights, g, 0, 2).edge_set == (0,)
    assert grow_subgraph(weights, g, 0, 3).edge_set == (0, 1)
    assert grow_subgraph(weights, g, 0, 4).edge_set == (0, 1, 2)


def test_grow_subgraph_frontier_not_global():
    # path 2-0-1-3 with a heavy far edge only reachable through a light one
    g = build_graph([[0.0]] * 4, [(0, 1), (0, 2), (1, 3)])
    weights = {0: 0.1, 1: 0.2, 2: 0.95}
    grown = grow_subgraph(weights, g, 0, 3)
    # first pick is the heaviest frontier edge (0,2); then (0,1) beats nothing
    assert grown.edge_set == (0, 1)
    grown4 = grow_subgraph(weights, g, 0, 4)
    assert grown4.edge_set == (0, 1, 2)


def test_grow_subgraph_equal_weights_use_canonical_order():
    g = star_graph()
    weights = {0: 0.5, 1: 0.5, 2: 0.5}
    assert grow_subgraph(weights, g, 0, 3).edge_set == (0, 1)


def test_grow_subgraph_single_node_and_empty_weights():
    g = star_graph()
    assert grow_subgraph({0: 0.9}, g, 0, 1).edge_set == ()
    assert grow_subgraph({}, g, 0, 4).edge_set == ()
    with pytest.raises(ValueError, match="max_nodes"):
        grow_subgraph({}, g, 0, 0)


def test_grow_subgraph_is_always_a_tree():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, max_nodes=8)
        v = int(rng.integers(0, g.node_count))
        eids = neighborhood_edge_ids(g, v, 2)
        weights = {eid: float(rng.random()) for eid in eids}
        sub = grow_subgraph(weights, g, v, 4)
        assert len(sub.edge_set) == len(sub.node_set) - 1
        from moexp import validate_subgraph

        assert validate_subgraph(g, sub) is None


def test_shapley_chain_matches_direct_formula(chain_model):
    g = three_chain()
    nu = simulatability_of(chain_model, g, 2)
    values = shapley_values(chain_model, g, 2, EnumConfig(max_nodes=3, diameter=2))
    assert set(values) == {0, 1}
    # node 1 is only deletable from {1, 2}; node 0 only from the full chain
    assert values[1].value == nu([1, 2]) - nu([2])
    assert values[1].support_count == 1
    assert values[0].value == nu([0, 1, 2]) - nu([1, 2])
    assert values[0].support_count == 1


def test_shapley_two_node_graph_single_entry(chain_model):
    g = build_graph([[1.0], [0.3]], [(0, 1)])
    values = shapley_values(chain_model, g, 0)
    assert set(values) == {1}
    assert values[1].support_count == 1
    nu = simulatability_of(chain_model, g, 0)
    assert values[1].value == nu([0, 1]) - nu([0])


def test_shapley_excludes_nodes_beyond_diameter(chain_model, chain_graph):
    values = shapley_values(chain_model, chain_graph, 0, EnumConfig(max_nodes=4, diameter=1))
    assert set(values) == {1}


def test_shapley_star_support_counts(chain_model):
    g = star_graph()
    values = shapley_values(chain_model, g, 0, EnumConfig(max_nodes=3, diameter=1))
    # every leaf appears in one 1-edge candidate and two 2-edge candidates,
    # and is deletable from all of them
    assert {n: v.support_count for n, v in values.items()} == {1: 3, 2: 3, 3: 3}


@given(st.integers(0, 40_000))
@settings(max_examples=30, deadline=None)
def test_shapley_matches_independent_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=6)
    m = random_model(rng)
    v = int(rng.integers(0, g.node_count))
    ours = shapley_values(m, g, v, EnumConfig(max_nodes=4, diameter=2))
    ref = shapley_oracle(m, g, v, 4, 2)
    assert set(ours) == set(ref)
    for node in ref:
        assert ours[node].support_count == ref[node][1]
        assert ours[node].value == pytest.approx(ref[node][0], abs=1e-12)


def test_set_shapley_single_node_agrees_with_per_node(chain_model):
    g = three_chain()
    cfg = EnumConfig(max_nodes=3, diameter=2)
    per_node = shapley_values(chain_model, g, 2, cfg)
    joint = set_shapley_value(chain_model, g, 2, {0}, cfg)
    assert joint.support_count == 1
    assert joint.value == pytest.approx(per_node[0].value, abs=1e-15)


def test_set_shapley_pair_normalizes_by_set_size(chain_model):
    g = three_chain()
    cfg = EnumConfig(max_nodes=3, diameter=2)
    nu = simulatability_of(chain_model, g, 2)
    joint = set_shapley_value(chain_model, g, 2, {0, 1}, cfg)
    assert joint.support_count == 1
    assert joint.value == pytest.approx((nu([0, 1, 2]) - nu([2])) / 2, abs=1e-15)


def test_set_shapley_unsupported_set_is_none(chain_model):
    g = three_chain()
    # with max_nodes=2 no candidate ever contains node 0
    assert set_shapley_value(chain_model, g, 2, {0}, EnumConfig(max_nodes=2, diameter=2)) is None


def test_set_shapley_input_validation(chain_model):
    g = three_chain()
    with pytest.raises(ValueError, match="target"):
        set_shapley_value(chain_model, g, 2, {2})
    with pytest.raises(ValueError, match="non-empty"):
        set_shapley_value(chain_model, g, 2, set())


def test_shapley_selection_chain_picks_largest_drop(chain_model):
    g = three_chain()
    cfg = EnumConfig(max_nodes=3, diameter=2)
    picked = shapley_selection(chain_model, g, 2, cfg)
    assert picked is not None
    expl, cf = picked
    enum = enumerate_subgraphs(g, 2, cfg)
    scorer = CandidateScorer(chain_model, g, enum)
    drop = abs(scorer.candidate(expl) - scorer.candidate(cf))
    # exhaustively confirm no other (candidate, leaf) combination beats it
    for i, sub in enumerate(enum.subgraphs):
        for node in sub.node_set:
            if node == 2:
                continue
            incident = [e for e in sub.edge_set if node in g.edges[e]]
            if len(incident) != 1:
                continue
            rest = make_subgraph(g, 2, [e for e in sub.edge_set if e != incident[0]])
            other = abs(scorer.candidate(i) - scorer.candidate(enum.index[rest.edge_set]))
            assert other <= drop + 1e-15


def test_shapley_selection_isolated_target_none(chain_model):
    g = build_graph([[1.0], [0.0]], [])
    assert shapley_selection(chain_model, g, 0) is None


def one_layer_model(columns):
    return Model(layers=(np.array(columns, dtype=float),))


def test_grad_analytic_values_on_path():
    g = build_graph([[1.0], [2.0], [3.0]], [(0, 1), (1, 2)])
    m = one_layer_model([[1.0, -1.0]])
    weights = grad_weights_analytic(m, g, 0, diameter=2)
    probs = forward(m, g, 0)
    margin = 1.0 - probs[0]
    assert weights[0] == pytest.approx(margin * 2.0, rel=1e-12)
    assert weights[1] == 0.0  # not incident to the target
    assert set(weights) == {0, 1}


def test_grad_analytic_saturated_prediction_all_zero():
    g = build_graph([[1.0], [1.0]], [(0, 1)])
    m = one_layer_model([[500.0, -500.0]])
    probs = forward(m, g, 0)
    assert probs[0] == 1.0
    weights = grad_weights_analytic(m, g, 0)
    assert weights == {0: 0.0}


def test_grad_fd_step_validation(chain_graph, chain_model):
    with pytest.raises(ValueError, match="step"):
        grad_weights_fd(chain_model, chain_graph, 2, 0.0)
    with pytest.raises(ValueError, match="step"):
        grad_weights_fd(chain_model, chain_graph, 2, 0.6)


def test_grad_fd_outside_receptive_field_exact_zero():
    g = build_graph([[1.0], [2.0], [3.0]], [(0, 1), (1, 2)])
    m = one_layer_model([[1.0, -1.0]])
    weights = grad_weights_fd(m, g, 0, 1e-4, diameter=2)
    assert weights[1] == 0.0
    assert weights[0] > 0.0


def test_grad_fd_tracks_analytic_on_aligned_family():
    # when the non-predicted class columns are zero the closed form equals
    # the derivative of the masked loss, so a small step reproduces it
    rng = np.random.default_rng(123)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        g = random_graph(rng, max_nodes=n, min_nodes=3, feature_dim=2)
        w = np.zeros((2, 2))
        w[:, 0] = rng.uniform(0.2, 1.0, size=2)
        m = Model(layers=(w,))
        v = int(rng.integers(0, g.node_count))
        analytic = grad_weights_analytic(m, g, v, diameter=1)
        fd = grad_weights_fd(m, g, v, 1e-4, diameter=1)
        for eid, expected in analytic.items():
            if expected < 1e-8:
                continue
            assert fd[eid] == pytest.approx(expected, rel=1e-3)


def test_grad_fd_weights_are_finite_and_nonnegative():
    rng = np.random.default_rng(77)
    g = random_graph(rng, max_nodes=7)
    m = random_model(rng)
    weights = grad_weights_fd(m, g, 0, 1e-3)
    assert all(np.isfinite(v) and v >= 0.0 for v in weights.values())


@st.composite
def fd_cases(draw):
    """A random graph, target and model for grad-fd, with every model option.

    The target may be isolated, and the graph may have one node."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
    # Inputs of 16 or more columns: a product's rounding can then depend on
    # its row count.
    width = st.one_of(st.integers(1, 4), st.sampled_from([16, 33]))
    dims = [draw(width) for _ in range(draw(st.integers(1, 3)))] + [draw(st.integers(2, 4))]
    edge_prob = draw(st.sampled_from([0.2, 0.4, 0.7]))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob]
    if n > 1 and draw(st.integers(0, 3)) == 0:
        edges = [e for e in edges if n - 1 not in e]  # an isolated node, drawn as the target below
        target = n - 1
    else:
        target = draw(st.integers(0, n - 1))
    graph = build_graph(rng.standard_normal((n, dims[0])), edges)
    model = Model(
        layers=tuple(rng.standard_normal((dims[i], dims[i + 1])) for i in range(len(dims) - 1)),
        activation=draw(st.sampled_from(["relu", "sigmoid", "identity"])),
        self_loop=draw(st.booleans()),
        mean_aggregate=draw(st.booleans()),
        final_activation=draw(st.booleans()),
    )
    step = draw(st.floats(0.0, 0.5, exclude_min=True))
    diameter = draw(st.integers(0, model.depth + 2))
    return model, graph, target, step, diameter


def _kept_batches(monkeypatch):
    """Record (targets, node states, messages) of each grad-fd batch."""
    batches = []

    def kept(model, h, hops, messages, *args, **kwargs):
        width = max(d for layer in model.layers for d in layer.shape)
        batches.append((int(np.sum(hops == 0)), h.shape[0] * width, sum(row.size for row, _, _ in messages)))
        return moexp.gcn.layers_hidden(model, h, hops, messages, *args, **kwargs)

    monkeypatch.setattr(moexp.baselines, "layers_hidden", kept)
    return batches


def test_grad_fd_splits_a_hub_into_bounded_batches(monkeypatch):
    # A 300-leaf star: every pass over a 2-layer ball reads 301 nodes and
    # adds 600 messages (the hub as target) or 301 (a leaf), so its 301
    # passes do not fit in one batch.
    n = 301
    rng = np.random.default_rng(11)
    graph = build_graph(rng.standard_normal((n, 3)), [(0, v) for v in range(1, n)])
    model = Model(layers=(rng.standard_normal((3, 4)), rng.standard_normal((4, 3))), activation="sigmoid")
    batches = _kept_batches(monkeypatch)
    for target in (0, 7):
        batches.clear()
        weights = grad_weights_fd(model, graph, target, 0.25)
        assert len(weights) == n - 1
        assert [(k, float.hex(v)) for k, v in weights.items()] == [
            (k, float.hex(v)) for k, v in reference_grad_weights_fd(model, graph, target, 0.25).items()
        ]
        assert sum(rows for rows, _, _ in batches) == n - 1  # one damped pass per edge
        assert len(batches) > 1
        for rows, states, messages in batches:
            assert states + messages <= FD_BATCH_ENTRIES
        for rows, states, messages in batches[:-1]:  # as large as the budget allows
            assert states + messages + (states + messages) // rows > FD_BATCH_ENTRIES


def test_grad_fd_is_one_kernel_call_and_no_forward(monkeypatch):
    # Given the reference distribution, grad-fd runs only its damped passes;
    # without it, one forward pass besides.
    rng = np.random.default_rng(5)
    graph = random_graph(rng, max_nodes=9, min_nodes=6, edge_prob=0.5)
    model = random_model(rng)
    reference = forward(model, graph, 0)
    calls = {"layers_hidden": 0, "trees_hidden": 0, "forward": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        for module in (moexp.baselines, moexp.gcn):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    weights = grad_weights_fd(model, graph, 0, 1e-3, reference=reference)
    assert len(weights) > 1
    assert calls == {"layers_hidden": 1, "trees_hidden": 0, "forward": 0}
    assert grad_weights_fd(model, graph, 0, 1e-3) == weights
    assert calls == {"layers_hidden": 3, "trees_hidden": 0, "forward": 1}


def test_grad_fd_node_runs_one_reference_pass(monkeypatch):
    # explain_node hands the scorer's pass to grad-fd. A reference
    # distribution that overrides it is not the model's, so grad-fd then
    # runs the model's own pass.
    rng = np.random.default_rng(8)
    graph = random_graph(rng, max_nodes=9, min_nodes=6, edge_prob=0.5)
    model = random_model(rng)
    config = EnumConfig(max_nodes=3, diameter=2)
    want = grad_weights_fd(model, graph, 0, 1e-4, config.diameter)
    passes, weights = [], []
    forward_hidden, fd = moexp.gcn.forward_hidden, moexp.baselines.grad_weights_fd

    def counted(model, graph, v, **kwargs):
        passes.append(v)
        return forward_hidden(model, graph, v, **kwargs)

    def kept(*args, **kwargs):
        weights.append(fd(*args, **kwargs))
        return weights[-1]

    monkeypatch.setattr(moexp.gcn, "forward_hidden", counted)
    monkeypatch.setattr(moexp.baselines, "grad_weights_fd", kept)
    for override in (None, forward(model, graph, 0)[::-1]):
        passes.clear()
        weights.clear()
        explain_node(model, graph, 0, config, method="grad-fd", reference_distribution=override)
        assert passes == [0]
        assert [[(k, float.hex(v)) for k, v in w.items()] for w in weights] == [
            [(k, float.hex(v)) for k, v in want.items()]
        ]


def _outcome(fn, *args):
    try:
        return "ok", [(k, float.hex(v)) for k, v in fn(*args).items()]
    except Exception as exc:
        return type(exc).__name__, str(exc)


@given(
    fd_cases(),
    st.lists(st.integers(0, 8), max_size=3),
    st.sampled_from([1e154, 1e307, 1.7e308]),
    st.sampled_from([FD_BATCH_ENTRIES, 1, 60, 200]),
)
@settings(max_examples=300, deadline=None)
def test_batched_grad_fd_equals_per_edge_passes_bitwise(case, huge, scale, entries):
    # The same keys in the same order and the same bits, or the same
    # exception and text: the ``huge`` nodes carry features near the float
    # limit, so some passes overflow. Small ``entries`` split the passes
    # into several batches, down to one pass each.
    model, graph, target, step, diameter = case
    features = graph.features.copy()
    rows = [v % graph.node_count for v in huge]
    features[rows] = np.sign(features[rows]) * scale
    graph = build_graph(features, graph.edges)
    with mock.patch.object(moexp.baselines, "FD_BATCH_ENTRIES", entries):
        batched = _outcome(grad_weights_fd, model, graph, target, step, diameter)
    assert batched == _outcome(reference_grad_weights_fd, model, graph, target, step, diameter)


def test_batched_grad_fd_reports_the_first_failing_pass(monkeypatch):
    # The unmasked pass cancels to finite values. Damping edge 0 (0-1)
    # overflows the target's last-layer product; damping edge 2 (1-3)
    # overflows node 1's first-layer sum, which a batch run layer by layer
    # meets first. Passes run one by one meet edge 0's overflow first.
    graph = build_graph([[0.0], [1.5e308], [-1.5e308], [-1.5e308], [1.5e308]], [(0, 1), (0, 2), (1, 3), (1, 4)])
    model = Model(layers=(np.array([[1.0]]), np.array([[2.0, 0.0]])), activation="identity")
    assert np.isfinite(forward(model, graph, 0)).all()
    message = "^forward pass at node 0: overflow encountered in matmul$"
    with pytest.raises(ValueError, match=message):
        reference_grad_weights_fd(model, graph, 0, 0.5)
    for entries in (FD_BATCH_ENTRIES, 1):  # one batch, or one per pass
        monkeypatch.setattr(moexp.baselines, "FD_BATCH_ENTRIES", entries)
        with pytest.raises(ValueError, match=message):
            grad_weights_fd(model, graph, 0, 0.5)
