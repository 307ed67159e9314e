import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moexp import (
    CandidateScorer,
    EnumConfig,
    Model,
    build_graph,
    cf_relevance,
    enumerate_subgraphs,
    evaluate_pairs,
    generate_pairs,
    make_subgraph,
    simulatability,
    validate_subgraph,
)
from moexp.cli import RunConfig

from oracles import brute_force_trees, random_graph, random_model, sym_kl


def three_chain():
    # b(0) - a(1) - i(2)
    return build_graph([[0.0], [0.0], [1.0]], [(0, 1), (1, 2)])


def star_graph():
    return build_graph([[1.0], [0.0], [0.0], [0.0]], [(0, 1), (0, 2), (0, 3)])


def test_enum_config_validation():
    with pytest.raises(ValueError, match="max_nodes"):
        EnumConfig(max_nodes=0)
    with pytest.raises(ValueError, match="diameter"):
        EnumConfig(diameter=0)
    with pytest.raises(ValueError, match="top_percent"):
        RunConfig("g.json", "w.json", "out", top_percent=0.0)
    with pytest.raises(ValueError, match="top_percent"):
        RunConfig("g.json", "w.json", "out", top_percent=100.5)


@given(st.integers(0, 50_000))
@settings(max_examples=60, deadline=None)
def test_counterfactuals_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=6)
    v = int(rng.integers(0, g.node_count))
    enum = enumerate_subgraphs(g, v, EnumConfig(max_nodes=4, diameter=2))
    trees = [frozenset(t) for t in brute_force_trees(g, v, 4, 2)]
    for i, sub in enumerate(enum.subgraphs):
        edges = frozenset(sub.edge_set)
        bare_ok = len(sub.node_set) < 3
        exhaustive = [frozenset(enum.subgraphs[j].edge_set) for j in enum.counterfactuals(i, True)]
        assert len(exhaustive) == len(set(exhaustive))
        assert set(exhaustive) == {t for t in trees if t < edges and (t or bare_ok)}
        chain, j = [], enum.parents[i]
        while j is not None:
            chain.append(j)
            j = enum.parents[j]
        assert enum.counterfactuals(i, False) == [j for j in chain if enum.subgraphs[j].edge_set or bare_ok]


def test_enumerate_chain_three_candidates():
    enum = enumerate_subgraphs(three_chain(), 2, EnumConfig(max_nodes=3, diameter=2))
    assert {s.edge_set for s in enum.subgraphs} == {(), (1,), (0, 1)}


def test_enumerate_star_seven_candidates():
    enum = enumerate_subgraphs(star_graph(), 0, EnumConfig(max_nodes=3, diameter=1))
    assert len(enum) == 7
    sizes = sorted(len(s.edge_set) for s in enum.subgraphs)
    assert sizes == [0, 1, 1, 1, 2, 2, 2]


def test_enumerate_triangle_excludes_cycle():
    g = build_graph([[0.0], [0.0], [0.0]], [(0, 1), (0, 2), (1, 2)])
    enum = enumerate_subgraphs(g, 0, EnumConfig(max_nodes=3, diameter=2))
    assert len(enum) == 6
    assert all(len(s.edge_set) < 3 for s in enum.subgraphs)


def test_enumerate_isolated_target():
    g = build_graph([[0.0], [0.0], [0.0]], [(1, 2)])
    enum = enumerate_subgraphs(g, 0)
    assert len(enum) == 1
    assert enum.subgraphs[0].edge_set == ()


def test_parent_links_grow_by_one_edge():
    g = random_graph(np.random.default_rng(5), max_nodes=7)
    enum = enumerate_subgraphs(g, 0, EnumConfig(max_nodes=4, diameter=3))
    for i, sub in enumerate(enum.subgraphs):
        parent = enum.parents[i]
        if parent is None:
            assert sub.edge_set == ()
            continue
        pset = set(enum.subgraphs[parent].edge_set)
        assert pset < set(sub.edge_set)
        assert len(sub.edge_set) == len(pset) + 1


def test_diameter_bound_respected():
    # path 0-1-2-3-4, target 0, D=2: node 3 must never appear
    g = build_graph([[0.0]] * 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    enum = enumerate_subgraphs(g, 0, EnumConfig(max_nodes=5, diameter=2))
    for sub in enum.subgraphs:
        assert max(sub.node_set) <= 2


@given(st.integers(0, 100_000), st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_enumeration_matches_bruteforce(seed, max_nodes, diameter):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=7)
    v = int(rng.integers(0, g.node_count))
    enum = enumerate_subgraphs(g, v, EnumConfig(max_nodes=max_nodes, diameter=diameter))
    keys = [s.edge_set for s in enum.subgraphs]
    assert len(keys) == len(set(keys)), "duplicate candidate"
    assert set(keys) == brute_force_trees(g, v, max_nodes, diameter)
    for sub in enum.subgraphs:
        assert validate_subgraph(g, sub) is None


def test_generate_pairs_chain_with_extreme_rule():
    enum = enumerate_subgraphs(three_chain(), 2, EnumConfig(max_nodes=3, diameter=2))
    pairs = {(e.edge_set, c.edge_set) for e, c in generate_pairs(enum)}
    # the 3-node explanation may not pair with the bare target, the
    # 2-node explanation has no other option and keeps it
    assert pairs == {((1,), ()), ((0, 1), (1,))}


def test_generate_pairs_single_candidate_none():
    g = build_graph([[0.0], [0.0]], [])
    enum = enumerate_subgraphs(g, 0)
    assert generate_pairs(enum) == []


def test_generate_pairs_star_counts_default_vs_exhaustive():
    enum = enumerate_subgraphs(star_graph(), 0, EnumConfig(max_nodes=3, diameter=1))
    assert len(generate_pairs(enum)) == 6
    exhaustive = generate_pairs(enum, exhaustive=True)
    assert len(exhaustive) == 9
    two_edge = [(e, c) for e, c in exhaustive if len(e.edge_set) == 2]
    assert len(two_edge) == 6
    for e, c in two_edge:
        assert len(c.edge_set) == 1 and set(c.edge_set) < set(e.edge_set)


def test_exhaustive_pairs_superset_of_default():
    g = random_graph(np.random.default_rng(11), max_nodes=7)
    enum = enumerate_subgraphs(g, 0, EnumConfig(max_nodes=4, diameter=2))
    default = {(e.edge_set, c.edge_set) for e, c in generate_pairs(enum)}
    exhaustive = {(e.edge_set, c.edge_set) for e, c in generate_pairs(enum, exhaustive=True)}
    assert default <= exhaustive


def test_simulatability_identical_is_zero():
    v = simulatability([0.5, 0.5], [0.5, 0.5])
    assert v == 0.0
    assert not np.signbit(v)


def test_simulatability_hand_value():
    v = simulatability([0.75, 0.25], [0.25, 0.75])
    assert v == pytest.approx(-np.log(3.0), abs=1e-7)
    assert v == -1.0986122862361642  # frozen including the 1e-9 smoothing


def test_simulatability_smoothed_extreme():
    assert simulatability([1.0, 0.0], [0.5, 0.5]) == -10.708206497794972


def test_simulatability_symmetric_bitwise():
    p = np.array([0.91, 0.06, 0.03])
    q = np.array([0.2, 0.5, 0.3])
    assert simulatability(p, q) == simulatability(q, p)


def test_simulatability_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        simulatability([1.0], [0.5, 0.5])


@given(
    st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=5),
    st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_simulatability_nonpositive_symmetric_matches_oracle(a, b):
    k = min(len(a), len(b))
    p = np.array(a[:k]) / sum(a[:k])
    q = np.array(b[:k]) / sum(b[:k])
    v = simulatability(p, q)
    assert v <= 0.0
    assert v == simulatability(q, p)
    assert v == pytest.approx(-sym_kl(p, q), rel=1e-9, abs=1e-12)


def test_cf_relevance_direct():
    assert cf_relevance(-0.1, -0.5, 2) == pytest.approx(0.2)
    assert cf_relevance(-0.3, -0.3, 7) == 0.0
    with pytest.raises(ValueError, match="removed_count"):
        cf_relevance(-0.1, -0.5, 0)


def test_cf_relevance_halves_exactly():
    num_a, num_b = -0.1, -0.734
    assert cf_relevance(num_a, num_b, 2) == cf_relevance(num_a, num_b, 1) / 2
    assert cf_relevance(num_a, num_b, 4) == cf_relevance(num_a, num_b, 1) / 4


def test_scorer_memoizes_shared_counterfactual(chain_graph, chain_model):
    scorer = CandidateScorer(chain_model, chain_graph, 2)
    shared_cf = make_subgraph(chain_graph, 2, [1])
    a = make_subgraph(chain_graph, 2, [0, 1])
    b = make_subgraph(chain_graph, 2, [1, 2])
    scorer.pair(a, shared_cf)
    scorer.pair(b, shared_cf)
    assert scorer.forward_count == 3
    assert scorer.hit_count == 1


def test_scorer_rejects_non_subtree(chain_graph, chain_model):
    scorer = CandidateScorer(chain_model, chain_graph, 2)
    a = make_subgraph(chain_graph, 2, [1])
    with pytest.raises(ValueError, match="proper sub-tree"):
        scorer.pair(a, a)
    b = make_subgraph(chain_graph, 2, [2])
    with pytest.raises(ValueError, match="proper sub-tree"):
        scorer.pair(a, b)


def test_memoization_semantically_invisible(chain_graph, chain_model):
    enum = enumerate_subgraphs(chain_graph, 2, EnumConfig(max_nodes=4, diameter=2))
    skeletons = generate_pairs(enum)
    with_memo = evaluate_pairs(chain_model, chain_graph, skeletons)
    without = [CandidateScorer(chain_model, chain_graph, 2).pair(e, c) for e, c in skeletons]
    for x, y in zip(with_memo, without):
        assert x.relevance == y.relevance
        assert x.explanation.simulatability == y.explanation.simulatability
        assert np.array_equal(x.explanation.distribution, y.explanation.distribution)


def test_pair_invariants_reconstruct_bitwise(chain_graph, chain_model):
    enum = enumerate_subgraphs(chain_graph, 2, EnumConfig(max_nodes=4, diameter=2))
    pairs = evaluate_pairs(chain_model, chain_graph, generate_pairs(enum))
    assert pairs
    for p in pairs:
        assert set(p.counterfactual.subgraph.edge_set) < set(p.explanation.subgraph.edge_set)
        assert p.removed_count == len(p.removed_nodes) >= 1
        assert set(p.removed_nodes) == set(p.explanation.subgraph.node_set) - set(p.counterfactual.subgraph.node_set)
        resumed = cf_relevance(
            p.explanation.simulatability, p.counterfactual.simulatability, p.removed_count
        )
        assert p.relevance == resumed
        assert p.abs_relevance == abs(p.relevance)


def test_chain_pair_relevance_frozen(chain_graph, chain_model):
    # the whole chain as explanation vs dropping the far signal node
    scorer = CandidateScorer(chain_model, chain_graph, 2)
    pair = scorer.pair(make_subgraph(chain_graph, 2, [0, 1, 2]), make_subgraph(chain_graph, 2, [1, 2]))
    assert pair.removed_nodes == (0,)
    assert pair.explanation.simulatability == 0.0
    assert pair.relevance == 0.007387704715317722


@given(st.integers(0, 50_000))
@settings(max_examples=40, deadline=None)
def test_scored_pairs_track_oracle_metric(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=6)
    m = random_model(rng)
    v = int(rng.integers(0, g.node_count))
    enum = enumerate_subgraphs(g, v, EnumConfig(max_nodes=3, diameter=2))
    pairs = evaluate_pairs(m, g, generate_pairs(enum))
    from moexp import forward

    reference = forward(m, g, v)
    for p in pairs:
        assert p.explanation.simulatability == pytest.approx(
            -sym_kl(reference, p.explanation.distribution), rel=1e-9, abs=1e-12
        )
