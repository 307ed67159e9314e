import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moexp import (
    ACTIVATIONS,
    Model,
    build_graph,
    canonical_order,
    enumerate_subgraphs,
    EnumConfig,
    forward,
    forward_hidden,
    load_weights,
    make_subgraph,
    node_embeddings,
    softmax,
)

from moexp.gcn import trees_hidden

from oracles import (
    ball_hidden,
    masked_loss,
    random_graph,
    random_model,
    restricted_forward,
    restricted_hidden,
    restricted_hidden_tree,
    standalone_distribution,
)


def test_isolated_node_identity_layer():
    g = build_graph([[1.0, 0.0]], [])
    m = Model(layers=(np.eye(2),))
    dist = forward(m, g, 0)
    e = np.e
    assert np.allclose(dist, [e / (e + 1), 1 / (e + 1)], atol=1e-12)


def test_all_ones_mask_is_identity(chain_graph, chain_model):
    # The masked ball loop of the oracles, with every weight 1, is the pass.
    plain = forward(chain_model, chain_graph, 2)
    masked = softmax(ball_hidden(chain_model, chain_graph, 2, mask={0: 1.0, 1: 1.0, 2: 1.0}))
    assert np.array_equal(plain, masked)


def test_feature_dim_mismatch_rejected(chain_graph):
    m = Model(layers=(np.eye(3),))
    with pytest.raises(ValueError, match="shape error"):
        forward(m, chain_graph, 0)


def test_load_weights_roundtrip_shapes():
    doc = {
        "activation": "relu",
        "self_loop": True,
        "layers": [
            {"rows": 4, "cols": 3, "data": list(range(12))},
            {"rows": 3, "cols": 2, "data": list(range(6))},
        ],
    }
    m = load_weights(doc)
    assert m.depth == 2 and m.input_dim == 4 and m.class_count == 2


def test_load_weights_dimension_mismatch():
    doc = {
        "activation": "relu",
        "layers": [
            {"rows": 4, "cols": 3, "data": list(range(12))},
            {"rows": 5, "cols": 2, "data": list(range(10))},
        ],
    }
    with pytest.raises(ValueError, match="layer dimension mismatch"):
        load_weights(doc)


def test_load_weights_unknown_activation():
    doc = {"activation": "tanh", "layers": [{"rows": 1, "cols": 2, "data": [1.0, 2.0]}]}
    with pytest.raises(ValueError, match="unknown activation"):
        load_weights(doc)


def test_load_weights_requires_two_classes():
    doc = {"activation": "relu", "layers": [{"rows": 2, "cols": 1, "data": [1.0, 2.0]}]}
    with pytest.raises(ValueError, match="class count must be at least 2"):
        load_weights(doc)


def test_constructor_allows_single_output_column():
    # scalar structural-equation stacks are built in memory, not loaded
    m = Model(layers=(np.array([[1.0]]), np.array([[1.0]])), activation="sigmoid")
    assert m.class_count == 1


def test_masked_loss_all_ones_equals_nll(chain_graph, chain_model):
    dist = forward(chain_model, chain_graph, 2)
    y = int(np.argmax(dist))
    loss = masked_loss(chain_model, chain_graph, 2, y, {})
    assert loss == pytest.approx(-np.log(dist[y]), abs=1e-12)


def test_masked_loss_goes_to_zero_when_certain():
    g = build_graph([[50.0, 0.0]], [])
    m = Model(layers=(np.eye(2),))
    assert masked_loss(m, g, 0, 0, {}) == float(-np.log(forward(m, g, 0)[0])) < 1e-20


def test_mask_outside_receptive_field_is_inert():
    # path 0-1-2-3-4, two-layer model, target 0: edge (3,4) is 3 hops out
    g = build_graph([[1.0], [2.0], [3.0], [4.0], [5.0]], [(0, 1), (1, 2), (2, 3), (3, 4)])
    m = Model(layers=(np.array([[1.0]]), np.array([[1.0, -1.0]])), activation="relu")
    base = float(-np.log(forward(m, g, 0)[0]))
    assert masked_loss(m, g, 0, 0, {3: 0.0}) == base


def test_locality_feature_edits_outside_ball():
    g1 = build_graph([[1.0], [2.0], [3.0], [4.0], [5.0]], [(0, 1), (1, 2), (2, 3), (3, 4)])
    g2 = build_graph([[1.0], [2.0], [3.0], [99.0], [-7.0]], [(0, 1), (1, 2), (2, 3), (3, 4)])
    m = Model(layers=(np.array([[1.0]]), np.array([[1.0, -1.0]])), activation="relu")
    assert np.array_equal(forward(m, g1, 0), forward(m, g2, 0))


def test_self_loop_flag_changes_aggregation():
    g = build_graph([[1.0], [10.0]], [(0, 1)])
    with_self = Model(layers=(np.array([[1.0, 0.0]]),), self_loop=True)
    without = Model(layers=(np.array([[1.0, 0.0]]),), self_loop=False)
    assert forward_hidden(with_self, g, 0)[0] == 11.0
    assert forward_hidden(without, g, 0)[0] == 10.0


def test_mean_aggregate_divides_by_message_count():
    g = build_graph([[2.0], [4.0], [6.0]], [(0, 1), (0, 2)])
    m = Model(layers=(np.array([[1.0, 0.0]]),), mean_aggregate=True)
    assert forward_hidden(m, g, 0)[0] == pytest.approx((2 + 4 + 6) / 3)


def test_final_activation_flag():
    g = build_graph([[1.0]], [])
    base = Model(layers=(np.array([[1.0]]),), activation="sigmoid")
    act = Model(layers=(np.array([[1.0]]),), activation="sigmoid", final_activation=True)
    assert forward_hidden(base, g, 0)[0] == 1.0
    assert forward_hidden(act, g, 0)[0] == pytest.approx(1 / (1 + np.exp(-1)))


def test_softmax_is_a_distribution():
    z = np.array([30.0, -30.0, 3.0])
    p = softmax(z)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert (p > 0).all()


def test_softmax_saturated_logits_underflow_to_zero():
    # beyond ~745 nats the tail rounds to exactly 0; the KL smoothing in
    # the objectives exists to keep such distributions comparable
    p = softmax(np.array([1000.0, -1000.0]))
    assert p[0] == 1.0 and p[1] == 0.0


def test_softmax_of_logits_whose_gap_overflows_is_exact():
    # 1e308 - (-1e308) overflows to inf, whose exp is exactly 0: no warning.
    assert softmax([1e308, -1e308]).tolist() == [1.0, 0.0]


def test_node_embeddings_depth_zero_is_features(chain_graph, chain_model):
    ball = canonical_order(chain_graph, 2, 2)
    emb = node_embeddings(chain_model, ball, 0)
    assert np.array_equal(emb, chain_graph.features[list(ball.nodes)])


def test_node_embeddings_bad_depth(chain_graph, chain_model):
    with pytest.raises(ValueError, match="depth_limit out of range"):
        node_embeddings(chain_model, canonical_order(chain_graph, 2, 2), 5)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_restricted_forward_equals_standalone_subgraph(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng)
    m = random_model(rng, activation=rng.choice(["relu", "sigmoid", "identity"]))
    v = int(rng.integers(0, g.node_count))
    enum = enumerate_subgraphs(g, v, EnumConfig(max_nodes=4, diameter=2))
    for sub in enum.subgraphs:
        restricted = restricted_forward(m, g, v, sub)
        rebuilt = standalone_distribution(m, g, v, sub.edge_set)
        assert np.array_equal(restricted, rebuilt)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_forward_deterministic(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng)
    m = random_model(rng)
    v = int(rng.integers(0, g.node_count))
    assert np.array_equal(forward(m, g, v), forward(m, g, v))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.sampled_from(ACTIVATIONS),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(1, 5),
)
@settings(max_examples=200, deadline=None)
def test_tree_kernel_equals_restricted_loop_bitwise(seed, depth, activation, self_loop, mean, final, extra, size):
    # Layer inputs stay narrower than 16, and than 8 before a one-column
    # layer: there the BLAS rounds a row of a product the same whatever else
    # the product holds, so a batch and a pass per tree agree bit for bit.
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(1, 16)) for _ in range(depth)] + [int(rng.integers(2, 4))]
    for i in range(1, depth):
        if dims[i] == 1:
            dims[i - 1] = min(dims[i - 1], 7)
    g = random_graph(rng, max_nodes=10, edge_prob=0.35, feature_dim=dims[0], min_nodes=1)
    layers = tuple(rng.standard_normal((dims[i], dims[i + 1])) for i in range(depth))
    m = Model(layers, activation, self_loop, mean, final)
    v = int(rng.integers(0, g.node_count))
    message = rng.standard_normal(dims[-2]) if extra else None
    enum = enumerate_subgraphs(g, v, EnumConfig(max_nodes=size, diameter=int(rng.integers(1, 4))))
    want = [restricted_hidden(m, g, v, sub, extra_message=message).tobytes() for sub in enum.subgraphs]
    # One tree per pass, from the subgraph alone.
    for sub, bits in zip(enum.subgraphs, want):
        assert restricted_hidden_tree(m, g, v, sub, extra_message=message).tobytes() == bits
    # All trees of one size in one batch from the candidate table, and a
    # batch of a single tree.
    for k in np.unique(enum.sizes):
        every = np.flatnonzero(enum.sizes == k)
        for batch in (every, every[rng.integers(0, every.size, 1)]):
            got = trees_hidden(
                m, enum.ball.features, enum.rows[batch, :k], enum.depth[batch, :k],
                enum.slots[batch, :k, : k - 1], v, message,
            )
            assert [row.tobytes() for row in got] == [want[i] for i in batch]


def test_candidate_table_lists_each_tree():
    # Triangle 0-1-2 plus a pendant 3 on node 2; target 2.
    g = build_graph([[0.0]] * 4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    enum = enumerate_subgraphs(g, 2, EnumConfig(max_nodes=3, diameter=1))
    nodes = np.asarray(enum.ball.nodes)
    for i, sub in enumerate(enum.subgraphs):
        k = len(sub.node_set)
        rows = enum.rows[i]
        assert (rows[k:] == -1).all() and nodes[rows[0]] == 2
        assert sorted(nodes[rows[:k]]) == list(sub.node_set)
        for r in range(k):
            used = enum.slots[i, r][enum.slots[i, r] >= 0]
            ids = nodes[rows[used]]
            want = sorted(w for e in sub.edge_set for u, w in (g.edges[e], g.edges[e][::-1]) if u == nodes[rows[r]])
            assert list(ids) == want
            assert (enum.slots[i, r, used.size:] == -1).all()
        tree_hops = {2: 0}
        for _ in sub.edge_set:
            for e in sub.edge_set:
                a, b = g.edges[e]
                for x, y in ((a, b), (b, a)):
                    if x in tree_hops and y not in tree_hops:
                        tree_hops[y] = tree_hops[x] + 1
        assert [tree_hops[u] for u in nodes[rows[:k]]] == list(enum.depth[i, :k])


def test_restricted_pass_skips_nodes_beyond_reach():
    # One layer reads only the target's tree neighbours, so node 2's
    # overflowing sum, two tree hops out or outside the target's component,
    # is never computed; as a target, node 2 fails.
    g = build_graph([[1.0], [1.0], [1e308], [1e308]], [(0, 1), (1, 2), (2, 3)])
    m = Model(layers=(np.array([[1.0, -1.0]]),))
    assert restricted_hidden_tree(m, g, 0, make_subgraph(g, 0, [0, 1, 2])).tolist() == [2.0, -2.0]
    assert restricted_hidden_tree(m, g, 0, make_subgraph(g, 0, [0, 2])).tolist() == [2.0, -2.0]
    with pytest.raises(ValueError, match="^forward pass at node 2: overflow encountered in add$"):
        restricted_hidden_tree(m, g, 2, make_subgraph(g, 2, [1, 2]))
