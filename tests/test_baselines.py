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
    canonical_order,
    explain_node,
    explain_scored,
    grad_weights_analytic,
    grad_weights_fd,
    neighborhood_edge_ids,
    random_weights,
    shapley_selection,
    shapley_values,
)

from moexp.baselines import grow_table
from moexp.gcn import BATCH_ENTRIES

from conftest import enumerate_at, forward_at
from oracles import (
    brute_force_trees,
    edge_subset_nodes,
    full_distances,
    index,
    is_tree_with_target,
    make_subgraph,
    random_graph,
    random_model,
    reference_grad_weights_fd,
    shapley_oracle,
    subgraph,
    subgraphs,
)


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
    enum = enumerate_at(graph, target)
    scorer = CandidateScorer(model, enum)
    return lambda nodes: scorer.candidate(index(enum)[induced_tree(graph, target, nodes).edge_set])


def test_neighborhood_edge_ids_respects_radius():
    g = build_graph([[0.0]] * 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert neighborhood_edge_ids(canonical_order(g, 0, 1), 1) == [0]
    assert neighborhood_edge_ids(canonical_order(g, 0, 2), 2) == [0, 1]
    assert neighborhood_edge_ids(canonical_order(g, 2, 1), 1) == [1, 2]
    assert neighborhood_edge_ids(canonical_order(g, 0, 4), 4) == [0, 1, 2, 3]


def test_random_weights_deterministic_and_in_range():
    g = star_graph()
    a = random_weights(canonical_order(g, 0, 1), 1, seed=9)
    b = random_weights(canonical_order(g, 0, 1), 1, seed=9)
    c = random_weights(canonical_order(g, 0, 1), 1, seed=10)
    assert a == b
    assert a != c
    assert set(a) == {0, 1, 2}
    assert all(0.0 <= v < 1.0 for v in a.values())


def test_random_weights_isolated_target_empty():
    g = build_graph([[0.0], [0.0], [0.0]], [(1, 2)])
    assert random_weights(canonical_order(g, 0, 2), 2, seed=0) == {}


def test_grow_subgraph_follows_heaviest_edges():
    g = star_graph()
    weights = {0: 0.9, 1: 0.5, 2: 0.3}
    assert subgraph(grow_table(weights, canonical_order(g, 0, 1), 2), -1).edge_set == (0,)
    assert subgraph(grow_table(weights, canonical_order(g, 0, 2), 3), -1).edge_set == (0, 1)
    assert subgraph(grow_table(weights, canonical_order(g, 0, 3), 4), -1).edge_set == (0, 1, 2)


def test_grow_subgraph_frontier_not_global():
    # path 2-0-1-3 with a heavy far edge only reachable through a light one
    g = build_graph([[0.0]] * 4, [(0, 1), (0, 2), (1, 3)])
    weights = {0: 0.1, 1: 0.2, 2: 0.95}
    grown = subgraph(grow_table(weights, canonical_order(g, 0, 2), 3), -1)
    # first pick is the heaviest frontier edge (0,2); then (0,1) beats nothing
    assert grown.edge_set == (0, 1)
    grown4 = subgraph(grow_table(weights, canonical_order(g, 0, 3), 4), -1)
    assert grown4.edge_set == (0, 1, 2)


def test_grow_subgraph_equal_weights_use_canonical_order():
    g = star_graph()
    weights = {0: 0.5, 1: 0.5, 2: 0.5}
    assert subgraph(grow_table(weights, canonical_order(g, 0, 2), 3), -1).edge_set == (0, 1)


def test_grow_subgraph_single_node_and_empty_weights():
    g = star_graph()
    assert subgraph(grow_table({0: 0.9}, canonical_order(g, 0, 0), 1), -1).edge_set == ()
    assert subgraph(grow_table({}, canonical_order(g, 0, 3), 4), -1).edge_set == ()
    with pytest.raises(ValueError, match="max_nodes"):
        grow_table({}, canonical_order(g, 0, 0), 0)


def test_grow_subgraph_is_always_a_tree():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, max_nodes=8)
        v = int(rng.integers(0, g.node_count))
        eids = neighborhood_edge_ids(canonical_order(g, v, 2), 2)
        weights = {eid: float(rng.random()) for eid in eids}
        sub = subgraph(grow_table(weights, canonical_order(g, v, 3), 4), -1)
        assert len(sub.edge_set) == len(sub.node_set) - 1
        assert is_tree_with_target(g.edges, sub.edge_set, v)


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


def test_shapley_selection_chain_picks_largest_drop(chain_model):
    g = three_chain()
    cfg = EnumConfig(max_nodes=3, diameter=2)
    enum = enumerate_at(g, 2, cfg)
    scorer = CandidateScorer(chain_model, enum)
    picked = shapley_selection(scorer)
    assert picked is not None
    expl, cf = picked
    drop = abs(scorer.candidate(expl) - scorer.candidate(cf))
    # exhaustively confirm no other (candidate, leaf) combination beats it
    for i, sub in enumerate(subgraphs(enum)):
        for node in sub.node_set:
            if node == 2:
                continue
            incident = [e for e in sub.edge_set if node in g.edges[e]]
            if len(incident) != 1:
                continue
            rest = make_subgraph(g, 2, [e for e in sub.edge_set if e != incident[0]])
            other = abs(scorer.candidate(i) - scorer.candidate(index(enum)[rest.edge_set]))
            assert other <= drop + 1e-15


def test_shapley_selection_isolated_target_none(chain_model):
    g = build_graph([[1.0], [0.0]], [])
    assert shapley_selection(CandidateScorer(chain_model, enumerate_at(g, 0))) is None


@st.composite
def shapley_cases(draw):
    """A model, a random graph or a star whose leaves share their features
    (so leaf drops tie), a target and a config of C in 2-5, D in 1-2, all
    but the graph's kind drawn from the seed's stream. Half the models
    have zero weights, so every drop ties at 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        graph = random_graph(rng, max_nodes=7)
    else:
        leaves = int(rng.integers(1, 6))
        graph = build_graph([[1.0, -0.5]] + [[0.25, 0.75]] * leaves, [(0, v) for v in range(1, leaves + 1)])
    model = random_model(rng)
    if rng.random() < 0.5:
        model = Model(layers=tuple(0.0 * w for w in model.layers))
    target = int(rng.integers(graph.node_count))
    return model, graph, target, EnumConfig(max_nodes=int(rng.integers(2, 6)), diameter=int(rng.integers(1, 3)))


def scanned_pick(scorer, graph, target, config):
    """The Shapley pick by a scan of every leaf removal from the brute-force
    trees, ranked by -|drop|, explanation size, then the sorted edge tuples
    of the explanation and the counterfactual; drops read from ``scorer``."""
    position = index(scorer.enumeration)
    best = None
    for subset in brute_force_trees(graph, target, config.max_nodes, config.diameter):
        nodes = edge_subset_nodes(graph.edges, subset, target)
        for leaf in sorted(nodes - {target}):
            incident = [e for e in subset if leaf in graph.edges[e]]
            if len(incident) != 1:
                continue
            rest = tuple(e for e in subset if e != incident[0])
            i, j = position[tuple(sorted(subset))], position[tuple(sorted(rest))]
            drop = scorer.candidate(i) - scorer.candidate(j)
            key = (-abs(drop), len(nodes), tuple(sorted(subset)), tuple(sorted(rest)))
            if best is None or key < best[0]:
                best = (key, (i, j))
    return None if best is None else best[1]


@given(shapley_cases())
@settings(max_examples=100, deadline=None)
def test_shapley_selection_matches_a_scan_of_leaf_removals(case):
    model, graph, target, config = case
    scorer = CandidateScorer(model, enumerate_at(graph, target, config))
    assert shapley_selection(scorer) == scanned_pick(scorer, graph, target, config)
    counts = {node: v.support_count for node, v in shapley_values(model, graph, target, config).items()}
    oracle = shapley_oracle(model, graph, target, config.max_nodes, config.diameter)
    assert counts == {node: count for node, (_, count) in oracle.items()}


def one_layer_model(columns):
    return Model(layers=(np.array(columns, dtype=float),))


def test_grad_analytic_values_on_path():
    g = build_graph([[1.0], [2.0], [3.0]], [(0, 1), (1, 2)])
    m = one_layer_model([[1.0, -1.0]])
    weights = grad_weights_analytic(m, canonical_order(g, 0, 2), 2)
    probs = forward_at(m, g, 0)
    margin = 1.0 - probs[0]
    assert weights[0] == pytest.approx(margin * 2.0, rel=1e-12)
    assert weights[1] == 0.0  # not incident to the target
    assert set(weights) == {0, 1}


def test_grad_analytic_saturated_prediction_all_zero():
    g = build_graph([[1.0], [1.0]], [(0, 1)])
    m = one_layer_model([[500.0, -500.0]])
    probs = forward_at(m, g, 0)
    assert probs[0] == 1.0
    weights = grad_weights_analytic(m, canonical_order(g, 0, 1), 1)
    assert weights == {0: 0.0}


def test_grad_fd_step_validation(chain_graph, chain_model):
    with pytest.raises(ValueError, match="step"):
        grad_weights_fd(chain_model, canonical_order(chain_graph, 2, 2), 0.0, 2)
    with pytest.raises(ValueError, match="step"):
        grad_weights_fd(chain_model, canonical_order(chain_graph, 2, 2), 0.6, 2)


def test_grad_fd_outside_receptive_field_exact_zero():
    g = build_graph([[1.0], [2.0], [3.0]], [(0, 1), (1, 2)])
    m = one_layer_model([[1.0, -1.0]])
    weights = grad_weights_fd(m, canonical_order(g, 0, 2), 1e-4, 2)
    assert weights[1] == 0.0
    assert weights[0] > 0.0


@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(1, 2), st.sampled_from(["relu", "sigmoid", "identity"]))
@settings(max_examples=60, deadline=None)
def test_grad_fd_is_exactly_zero_outside_the_receptive_field_of_a_wide_model(seed, depth, beyond, activation):
    # A deep random tree, a model 16 to 48 columns wide and a diameter past
    # its depth: an edge whose ends both lie L or more hops from the target
    # carries no message the target reads, so its damped pass repeats the
    # reference pass bit for bit and its weight is exactly 0.0.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(depth + 3, 12))
    edges = [(int(rng.integers(max(0, i - 2), i)), i) for i in range(1, n)]
    dims = [int(rng.integers(16, 49)) for _ in range(depth)] + [int(rng.integers(2, 4))]
    g = build_graph(rng.standard_normal((n, dims[0])), edges)
    m = Model(tuple(rng.standard_normal((dims[i], dims[i + 1])) for i in range(depth)), activation)
    hops = full_distances(g, 0)
    ball = canonical_order(g, 0, depth + beyond)
    weights = grad_weights_fd(m, ball, float(rng.uniform(0.01, 0.5)), depth + beyond)
    outside = [eid for eid in weights if min(hops[u] for u in g.edges[eid]) >= depth]
    assert all(weights[eid] == 0.0 for eid in outside)
    assert len(outside) < len(weights)


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
        ball = canonical_order(g, v, 1)
        analytic = grad_weights_analytic(m, ball, 1)
        fd = grad_weights_fd(m, ball, 1e-4, 1)
        for eid, expected in analytic.items():
            if expected < 1e-8:
                continue
            assert fd[eid] == pytest.approx(expected, rel=1e-3)


def test_grad_fd_weights_are_finite_and_nonnegative():
    rng = np.random.default_rng(77)
    g = random_graph(rng, max_nodes=7)
    m = random_model(rng)
    weights = grad_weights_fd(m, canonical_order(g, 0, m.depth), 1e-3, m.depth)
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
    kernel = moexp.gcn.layers_hidden

    def kept(model, h, hops, messages, *args, **kwargs):
        width = max(d for layer in model.layers for d in layer.shape)
        batches.append((int(np.sum(hops == 0)), h.shape[0] * width, sum(row.size for row, _, _ in messages)))
        return kernel(model, h, hops, messages, *args, **kwargs)

    monkeypatch.setattr(moexp.gcn, "layers_hidden", kept)
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
        reference = forward_at(model, graph, target)  # so that only damped batches are recorded
        batches.clear()
        weights = grad_weights_fd(model, canonical_order(graph, target, 2), 0.25, 2, reference=reference)
        assert len(weights) == n - 1
        assert [(k, float.hex(v)) for k, v in weights.items()] == [
            (k, float.hex(v)) for k, v in reference_grad_weights_fd(model, graph, target, 0.25).items()
        ]
        assert sum(rows for rows, _, _ in batches) == n - 1  # one damped pass per edge
        assert len(batches) > 1
        for rows, states, messages in batches:
            assert states + messages <= BATCH_ENTRIES
        for rows, states, messages in batches[:-1]:  # as large as the budget allows
            assert states + messages + (states + messages) // rows > BATCH_ENTRIES


def test_grad_fd_is_one_kernel_call_and_no_forward(monkeypatch):
    # Given the reference distribution, grad-fd runs only its damped passes;
    # without it, one forward pass besides.
    rng = np.random.default_rng(5)
    graph = random_graph(rng, max_nodes=9, min_nodes=6, edge_prob=0.5)
    model = random_model(rng)
    reference = forward_at(model, graph, 0)
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
    ball = canonical_order(graph, 0, model.depth)
    weights = grad_weights_fd(model, ball, 1e-3, model.depth, reference=reference)
    assert len(weights) > 1
    assert calls == {"layers_hidden": 1, "trees_hidden": 0, "forward": 0}
    assert grad_weights_fd(model, ball, 1e-3, model.depth) == weights
    assert calls == {"layers_hidden": 3, "trees_hidden": 0, "forward": 1}


def test_grad_fd_node_runs_one_reference_pass(monkeypatch):
    # explain_scored hands grad-fd the scorer's model_distribution: the
    # node's own pass, which a with_reference copy keeps. A scorer built
    # with a given reference has none, so grad-fd runs the model's pass.
    rng = np.random.default_rng(8)
    graph = random_graph(rng, max_nodes=9, min_nodes=6, edge_prob=0.5)
    model = random_model(rng)
    config = EnumConfig(max_nodes=3, diameter=2)
    want = grad_weights_fd(model, canonical_order(graph, 0, 2), 1e-4, config.diameter)
    override = forward_at(model, graph, 0)[::-1]
    passes, weights = [], []
    forward_hidden, fd = moexp.gcn.forward_hidden, moexp.baselines.grad_weights_fd

    def counted(model, ball, **kwargs):
        passes.append(ball.target)
        return forward_hidden(model, ball, **kwargs)

    def kept(*args, **kwargs):
        weights.append(fd(*args, **kwargs))
        return weights[-1]

    monkeypatch.setattr(moexp.gcn, "forward_hidden", counted)
    monkeypatch.setattr(moexp.baselines, "grad_weights_fd", kept)
    runs = [
        lambda: explain_node(model, graph, 0, config, method="grad-fd"),
        lambda: explain_scored(CandidateScorer(model, enumerate_at(graph, 0, config)).with_reference(override),
                               "grad-fd", 42, False, None),
        lambda: explain_scored(CandidateScorer(model, enumerate_at(graph, 0, config), 1e-9, override),
                               "grad-fd", 42, False, None),
    ]
    for run in runs:
        passes.clear()
        weights.clear()
        run()
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
    st.sampled_from([BATCH_ENTRIES, 1, 60, 200]),
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
    with mock.patch.object(moexp.gcn, "BATCH_ENTRIES", entries):
        ball = canonical_order(graph, target, max(diameter, model.depth))
        batched = _outcome(grad_weights_fd, model, ball, step, diameter)
    assert batched == _outcome(reference_grad_weights_fd, model, graph, target, step, diameter)


def test_batched_grad_fd_reports_the_first_failing_pass(monkeypatch):
    # The unmasked pass cancels to finite values. Damping edge 0 (0-1)
    # overflows the target's last-layer product; damping edge 2 (1-3)
    # overflows node 1's first-layer sum, which a batch run layer by layer
    # meets first. Passes run one by one meet edge 0's overflow first.
    graph = build_graph([[0.0], [1.5e308], [-1.5e308], [-1.5e308], [1.5e308]], [(0, 1), (0, 2), (1, 3), (1, 4)])
    model = Model(layers=(np.array([[1.0]]), np.array([[2.0, 0.0]])), activation="identity")
    assert np.isfinite(forward_at(model, graph, 0)).all()
    message = "^forward pass at node 0: overflow encountered in matmul$"
    with pytest.raises(ValueError, match=message):
        reference_grad_weights_fd(model, graph, 0, 0.5)
    for entries in (BATCH_ENTRIES, 1):  # one batch, or one per pass
        monkeypatch.setattr(moexp.gcn, "BATCH_ENTRIES", entries)
        with pytest.raises(ValueError, match=message):
            grad_weights_fd(model, canonical_order(graph, 0, 2), 0.5, 2)
