import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moexp import build_graph, canonical_order, confounder_set

from oracles import (
    bfs_distances,
    degree,
    full_canonical_order,
    full_distances,
    incidence,
    is_tree_with_target,
    make_subgraph,
    same_graph,
)


def test_minimal_graph_adjacency():
    g = build_graph([[0.0], [1.0]], [[0, 1]])
    assert g.adjacency == ((1,), (0,))
    assert g.edges == ((0, 1),)


def test_duplicate_edge_rejected_in_either_orientation():
    with pytest.raises(ValueError, match="duplicate edge"):
        build_graph([[0.0], [1.0]], [[0, 1], [1, 0]])


def test_bad_node_id_rejected():
    with pytest.raises(ValueError, match="node id out of range"):
        build_graph([[0.0], [1.0]], [[0, 2]])


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph([[0.0], [1.0]], [[1, 1]])


def test_ragged_features_rejected():
    with pytest.raises(ValueError, match="feature length mismatch"):
        build_graph([[0.0], [1.0, 2.0]], [])


def test_chain_degree_sequence(chain_graph):
    degrees = sorted(degree(chain_graph, v) for v in range(4))
    assert degrees == [1, 1, 2, 2]


def test_edge_list_permutation_invariance():
    feats = [[0.0], [1.0], [2.0], [3.0]]
    edges = [(0, 1), (2, 3), (1, 2), (0, 3)]
    reference = build_graph(feats, edges)
    for perm in ([(1, 2), (0, 3), (2, 3), (0, 1)], [(3, 0), (2, 1), (1, 0), (3, 2)]):
        assert same_graph(build_graph(feats, perm), reference)


def test_canonical_order_star_leaf_ties():
    # center is node 3, leaves 5, 2, 9 plus fillers to make ids meaningful
    g = build_graph([[0.0]] * 10, [(3, 5), (2, 3), (3, 9)])
    co = full_canonical_order(g, 3)
    assert co.node_rank[3] == 0
    assert co.node_rank[2] == 1
    assert co.node_rank[5] == 2
    assert co.node_rank[9] == 3


def test_canonical_order_chain(chain_graph):
    co = full_canonical_order(chain_graph, 2)
    assert co.node_rank == (3, 1, 0, 2)


def test_canonical_order_depth_ties_use_node_id():
    # two depth-2 nodes reached through different parents: id decides
    g = build_graph([[0.0]] * 10, [(0, 5), (0, 9), (5, 7), (3, 9)])
    co = full_canonical_order(g, 0)
    assert co.node_rank[3] == 3
    assert co.node_rank[7] == 4


def test_canonical_order_unreachable_last():
    g = build_graph([[0.0]] * 4, [(0, 1)])
    co = full_canonical_order(g, 0)
    assert co.node_rank == (0, 1, 2, 3)


def test_edge_rank_orders_by_endpoint_ranks(chain_graph):
    co = full_canonical_order(chain_graph, 2)
    # edges: (0,1) ranks (3,1); (1,2) ranks (1,0); (2,3) ranks (0,2)
    assert co.edge_rank[1] == 0
    assert co.edge_rank[2] == 1
    assert co.edge_rank[0] == 2


def test_l_hop_neighborhood_chain(chain_graph):
    assert confounder_set(canonical_order(chain_graph, 2, 1), 1, removed=()) == {1, 3}
    assert confounder_set(canonical_order(chain_graph, 2, 2), 2, removed=()) == {0, 1, 3}


def test_l_hop_neighborhood_isolated():
    g = build_graph([[0.0], [1.0], [2.0]], [(1, 2)])
    assert confounder_set(canonical_order(g, 0, 1), 1, removed=()) == set()
    assert confounder_set(canonical_order(g, 0, 5), 5, removed=()) == set()
    with pytest.raises(ValueError, match="hops must be positive"):
        confounder_set(canonical_order(g, 0, 0), 0, removed=())


def graph_strategy(max_n=7):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        mask = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p, keep in zip(pairs, mask) if keep]
        feats = [[float(i)] for i in range(n)]
        return build_graph(feats, edges)

    return build()


@given(graph_strategy(), st.integers(0, 6), st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_neighborhood_monotone_and_matches_bfs(g, v, hops):
    v = v % g.node_count
    smaller = confounder_set(canonical_order(g, v, hops), hops, removed=())
    larger = confounder_set(canonical_order(g, v, hops + 1), hops + 1, removed=())
    assert smaller <= larger
    dist = full_distances(g, v)
    assert smaller == {u for u, d in dist.items() if 0 < d <= hops}


@given(graph_strategy(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_bfs_distances_match_oracle(g, v):
    v = v % g.node_count
    dist = bfs_distances(g, v)
    oracle = full_distances(g, v)
    for u in range(g.node_count):
        assert dist[u] == oracle.get(u)


@given(graph_strategy(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_accepted_subgraphs_satisfy_tree_identity(g, v):
    v = v % g.node_count
    co = full_canonical_order(g, v)
    assert sorted(co.node_rank) == list(range(g.node_count))
    assert sorted(co.edge_rank) == list(range(len(g.edges)))
    # a star of up to two incident edges around v is always a valid tree
    incident = [eid for _, eid in incidence(g)[v]][:2]
    sub = make_subgraph(g, v, incident)
    assert is_tree_with_target(g.edges, sub.edge_set, v)
    assert len(sub.edge_set) == len(sub.node_set) - 1


def test_features_stored_dense(chain_graph):
    assert chain_graph.features.shape == (4, 1)
    assert chain_graph.features.dtype == np.float64
    assert chain_graph.labels == (1, 0, 0, 0)
