import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moexp import (
    CandidateScorer,
    Enumeration,
    EnumConfig,
    Model,
    build_graph,
    canonical_order,
    cf_relevance,
    enumerate_subgraphs,
    generate_pairs,
    simulatability,
    softmax,
    validate_subgraph,
)
from moexp.cli import RunConfig
from moexp.explain import counterfactual_pairs

from oracles import (
    brute_force_trees,
    random_graph,
    random_model,
    recursive_enumeration,
    reference_pairs,
    sym_kl,
)


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
    by_explanation = {mode: [[] for _ in range(len(enum))] for mode in (False, True)}
    for mode, lists in by_explanation.items():
        for e, c in generate_pairs(enum, exhaustive=mode).tolist():
            lists[e].append(c)
    for i, sub in enumerate(enum.subgraphs):
        edges = frozenset(sub.edge_set)
        bare_ok = len(sub.node_set) < 3
        exhaustive = [frozenset(enum.subgraphs[j].edge_set) for j in by_explanation[True][i]]
        assert len(exhaustive) == len(set(exhaustive))
        assert set(exhaustive) == {t for t in trees if t < edges and (t or bare_ok)}
        chain, j = [], enum.parent[i]
        while j >= 0:
            chain.append(j)
            j = enum.parent[j]
        assert by_explanation[False][i] == [j for j in chain if enum.subgraphs[j].edge_set or bare_ok]


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
        parent = enum.parent[i]
        if parent < 0:
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


def assert_table_matches_recursive_oracle(enum: Enumeration, graph, config, rng):
    ref = recursive_enumeration(graph, enum.target, config)
    assert enum.subgraphs == ref.subgraphs
    assert [enum.subgraph(i) for i in range(len(enum))] == list(ref.subgraphs)
    assert enum.parent.tolist() == [-1 if p is None else p for p in ref.parents]
    assert enum.sizes.tolist() == [len(s.node_set) for s in ref.subgraphs]
    for name in ("rows", "depth", "slots"):
        got, want = getattr(enum, name), getattr(ref, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
    assert enum.edge_set_rank.tolist() == ref.edge_set_rank.tolist()
    assert enum.index == ref.index

    # Every candidate, subsets of the ball's edges that may or may not be
    # trees, sets with edges outside the ball and sets too large to be one.
    ball_edges = sorted(enum.ball.edge_rank)
    outside = [e for e in range(graph.edge_count) if e not in enum.ball.edge_rank]
    queries = [s.edge_set for s in ref.subgraphs]
    for k in range(1, min(len(ball_edges), config.max_nodes) + 1):
        for _ in range(5):
            queries.append(tuple(sorted(rng.choice(ball_edges, size=k, replace=False).tolist())))
    queries += [(e,) for e in outside[:3]] + [tuple(sorted(ball_edges[:1] + outside[:1]))]
    width = config.max_nodes - 1
    fitting = [q for q in queries if len(q) <= width]
    rows = np.full((len(fitting), width), -1, dtype=np.intp)
    for row, q in zip(rows, fitting):
        row[: len(q)] = q
    assert enum.positions(rows).tolist() == [ref.index.get(q, -1) for q in fitting]

    for exhaustive in (False, True):
        want = reference_pairs(ref, exhaustive)
        got = generate_pairs(enum, exhaustive)
        assert got.dtype == np.intp and got.shape == (len(want), 2)
        assert got.tolist() == [list(p) for p in want]
        some = np.flatnonzero(rng.random(len(enum)) < 0.5)
        assert counterfactual_pairs(enum, some, exhaustive).tolist() == [list(p) for p in want if p[0] in some]
        for e, c in want:
            assert enum.removed_nodes(e, c) == ref.removed_nodes(e, c)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(1, 8),
    st.sampled_from([0.0, 0.15, 0.3, 0.5, 0.8]),
)
@settings(max_examples=300, deadline=None)
def test_table_enumeration_matches_recursive_oracle(seed, max_nodes, diameter, nodes, edge_prob):
    # Single-node graphs, isolated targets, paths, dense balls.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=nodes, edge_prob=edge_prob, min_nodes=1)
    v = int(rng.integers(0, g.node_count))
    config = EnumConfig(max_nodes=max_nodes, diameter=diameter)
    assert_table_matches_recursive_oracle(enumerate_subgraphs(g, v, config), g, config, rng)


@pytest.mark.parametrize("nodes,target,max_nodes,diameter,hops", [(21, 10, 17, 10, 10), (300, 260, 9, 8, 299)])
def test_lookup_keys_wider_than_63_bits_match_the_oracle(nodes, target, max_nodes, diameter, hops):
    # On a path, 16 edge columns over a 20-edge ball (digits in base 21 would
    # not fit 63 bits), and 8 columns over a 299-edge ball whose edge ids
    # cross 256, so the byte keys must be big-endian to sort as the rows do.
    g = build_graph([[0.0]] * nodes, [(i, i + 1) for i in range(nodes - 1)])
    config = EnumConfig(max_nodes=max_nodes, diameter=diameter)
    enum = enumerate_subgraphs(g, target, config, canonical_order(g, target, hops))
    # Paths of a nodes left and b nodes right of the target, a + b < max_nodes.
    left, right = min(diameter, target), min(diameter, nodes - 1 - target)
    assert len(enum) == sum(1 for a in range(left + 1) for b in range(right + 1) if a + b < max_nodes)
    assert_table_matches_recursive_oracle(enum, g, config, np.random.default_rng(0))


def edge_set_pairs(enum, pairs):
    return [(enum.subgraphs[e].edge_set, enum.subgraphs[c].edge_set) for e, c in pairs]


def test_generate_pairs_chain_with_extreme_rule():
    enum = enumerate_subgraphs(three_chain(), 2, EnumConfig(max_nodes=3, diameter=2))
    pairs = set(edge_set_pairs(enum, generate_pairs(enum)))
    # the 3-node explanation may not pair with the bare target, the
    # 2-node explanation has no other option and keeps it
    assert pairs == {((1,), ()), ((0, 1), (1,))}


def test_generate_pairs_single_candidate_none():
    g = build_graph([[0.0], [0.0]], [])
    enum = enumerate_subgraphs(g, 0)
    assert generate_pairs(enum).shape == (0, 2)


def test_generate_pairs_star_counts_default_vs_exhaustive():
    enum = enumerate_subgraphs(star_graph(), 0, EnumConfig(max_nodes=3, diameter=1))
    assert len(generate_pairs(enum)) == 6
    exhaustive = edge_set_pairs(enum, generate_pairs(enum, exhaustive=True))
    assert len(exhaustive) == 9
    two_edge = [(e, c) for e, c in exhaustive if len(e) == 2]
    assert len(two_edge) == 6
    for e, c in two_edge:
        assert len(c) == 1 and set(c) < set(e)


def test_exhaustive_pairs_superset_of_default():
    g = random_graph(np.random.default_rng(11), max_nodes=7)
    enum = enumerate_subgraphs(g, 0, EnumConfig(max_nodes=4, diameter=2))
    default = set(edge_set_pairs(enum, generate_pairs(enum)))
    exhaustive = set(edge_set_pairs(enum, generate_pairs(enum, exhaustive=True)))
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


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),
    st.integers(1, 12),
    st.sampled_from([1e-12, 1e-9, 1e-3, 0.25, 0.9]),
)
@settings(max_examples=300, deadline=None)
def test_stacked_softmax_and_simulatability_equal_row_calls_bitwise(seed, classes, count, epsilon):
    rng = np.random.default_rng(seed)
    # Moderate rows, rows saturated past exp's range, ties, and -0.0.
    logits = rng.standard_normal((count, classes)) * rng.choice([1.0, 40.0, 1000.0], size=(count, 1))
    logits[rng.random(logits.shape) < 0.2] = -0.0
    tied = rng.random(count) < 0.3
    logits[tied] = logits[tied, :1]
    stacked = softmax(logits)
    for row, z in zip(stacked, logits):
        assert row.tobytes() == softmax(z).tobytes()
    # The candidates: those rows, copies of the reference, exact 0/1 rows
    # and -0.0 entries.
    reference = softmax(rng.standard_normal(classes) * rng.choice([1.0, 1000.0]))
    q = stacked.copy()
    q[rng.random(count) < 0.2] = reference
    q[rng.random(q.shape) < 0.1] = -0.0
    values = simulatability(reference, q, epsilon)
    swapped = simulatability(q, reference, epsilon)
    for k, row in enumerate(q):
        one = simulatability(reference, row, epsilon)
        assert values[k].tobytes() == swapped[k].tobytes() == np.float64(one).tobytes()
        assert one == simulatability(row, reference, epsilon)


def test_cf_relevance_direct():
    assert cf_relevance(-0.1, -0.5, 2) == pytest.approx(0.2)
    assert cf_relevance(-0.3, -0.3, 7) == 0.0
    with pytest.raises(ValueError, match="removed_count"):
        cf_relevance(-0.1, -0.5, 0)


def test_cf_relevance_halves_exactly():
    num_a, num_b = -0.1, -0.734
    assert cf_relevance(num_a, num_b, 2) == cf_relevance(num_a, num_b, 1) / 2
    assert cf_relevance(num_a, num_b, 4) == cf_relevance(num_a, num_b, 1) / 4


def chain_scorer(graph, model):
    enum = enumerate_subgraphs(graph, 2, EnumConfig(max_nodes=4, diameter=2))
    return enum, CandidateScorer(model, graph, enum)


def test_scorer_memoizes_shared_counterfactual(chain_graph, chain_model):
    enum, scorer = chain_scorer(chain_graph, chain_model)
    shared_cf = enum.index[(1,)]
    a = enum.index[(0, 1)]
    b = enum.index[(1, 2)]
    scorer.pair(np.array([a]), np.array([shared_cf]))
    scorer.pair(np.array([b]), np.array([shared_cf]))
    assert scorer.forward_count == 3
    assert scorer.hit_count == 1


def test_memoization_semantically_invisible(chain_graph, chain_model):
    enum, scorer = chain_scorer(chain_graph, chain_model)
    pairs = generate_pairs(enum)
    with_memo = scorer.pair(pairs[:, 0], pairs[:, 1])
    for k, (e, c) in enumerate(pairs):
        fresh = CandidateScorer(chain_model, chain_graph, enum)
        assert with_memo[k] == fresh.pair(pairs[k : k + 1, 0], pairs[k : k + 1, 1])[0]
        assert scorer.simulatability[e] == fresh.simulatability[e]
        assert np.array_equal(scorer.distributions[e], fresh.distributions[e])


def test_pair_invariants_reconstruct_bitwise(chain_graph, chain_model):
    enum, scorer = chain_scorer(chain_graph, chain_model)
    pairs = generate_pairs(enum)
    relevance = scorer.pair(pairs[:, 0], pairs[:, 1])
    assert len(pairs)
    for (e, c), rel in zip(pairs, relevance):
        expl, cf = enum.subgraphs[e], enum.subgraphs[c]
        assert set(cf.edge_set) < set(expl.edge_set)
        removed = enum.removed_nodes(e, c)
        assert len(removed) >= 1
        assert set(removed) == set(expl.node_set) - set(cf.node_set)
        resumed = cf_relevance(scorer.simulatability[e], scorer.simulatability[c], len(removed))
        assert rel == resumed


def test_chain_pair_relevance_frozen(chain_graph, chain_model):
    # the whole chain as explanation vs dropping the far signal node
    enum, scorer = chain_scorer(chain_graph, chain_model)
    e, c = enum.index[(0, 1, 2)], enum.index[(1, 2)]
    relevance = scorer.pair(np.array([e]), np.array([c]))
    assert enum.removed_nodes(e, c) == [0]
    assert scorer.simulatability[e] == 0.0
    assert relevance[0] == 0.007387704715317722


@given(st.integers(0, 50_000))
@settings(max_examples=40, deadline=None)
def test_scored_pairs_track_oracle_metric(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=6)
    m = random_model(rng)
    v = int(rng.integers(0, g.node_count))
    enum = enumerate_subgraphs(g, v, EnumConfig(max_nodes=3, diameter=2))
    scorer = CandidateScorer(m, g, enum)
    pairs = generate_pairs(enum)
    scorer.pair(pairs[:, 0], pairs[:, 1])
    from moexp import forward

    reference = forward(m, g, v)
    for e in pairs[:, 0]:
        assert scorer.simulatability[e] == pytest.approx(
            -sym_kl(reference, scorer.distributions[e]), rel=1e-9, abs=1e-12
        )
