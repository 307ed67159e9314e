import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moexp.explain
import moexp.gcn
from moexp import (
    DEFAULT_EPSILON,
    CandidateScorer,
    Enumeration,
    EnumConfig,
    Model,
    build_graph,
    canonical_order,
    enumerate_subgraphs,
    generate_pairs,
    simulatability,
    softmax,
)
from moexp.cli import build_parser, explain_command
from moexp.explain import counterfactual_pairs

from conftest import enumerate_at, forward_at
from oracles import (
    brute_force_trees,
    cf_relevance,
    index,
    is_tree_with_target,
    lexsort_edge_set_rank,
    random_graph,
    random_model,
    recursive_enumeration,
    reference_pairs,
    subgraph,
    subgraphs,
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
    # Checked before the command reads its (here missing) inputs.
    argv = ["explain", "--graph", "g.json", "--weights", "w.json", "--out", "out", "--top-percent"]
    for top_percent in ("0", "100.5"):
        with pytest.raises(ValueError, match="top_percent"):
            explain_command(build_parser("explain").parse_args(argv + [top_percent]))


@given(st.integers(0, 50_000))
@settings(max_examples=60, deadline=None)
def test_counterfactuals_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=6)
    v = int(rng.integers(0, g.node_count))
    enum = enumerate_at(g, v, EnumConfig(max_nodes=4, diameter=2))
    trees = [frozenset(t) for t in brute_force_trees(g, v, 4, 2)]
    by_explanation = {mode: [[] for _ in range(len(enum))] for mode in (False, True)}
    for mode, lists in by_explanation.items():
        for e, c in generate_pairs(enum, exhaustive=mode).tolist():
            lists[e].append(c)
    subs = subgraphs(enum)
    for i, sub in enumerate(subs):
        edges = frozenset(sub.edge_set)
        bare_ok = len(sub.node_set) < 3
        exhaustive = [frozenset(subs[j].edge_set) for j in by_explanation[True][i]]
        assert len(exhaustive) == len(set(exhaustive))
        assert set(exhaustive) == {t for t in trees if t < edges and (t or bare_ok)}
        chain, j = [], enum.parent[i]
        while j >= 0:
            chain.append(j)
            j = enum.parent[j]
        assert by_explanation[False][i] == [j for j in chain if subs[j].edge_set or bare_ok]


def test_enumerate_chain_three_candidates():
    enum = enumerate_at(three_chain(), 2, EnumConfig(max_nodes=3, diameter=2))
    assert {s.edge_set for s in subgraphs(enum)} == {(), (1,), (0, 1)}


def test_enumerate_star_seven_candidates():
    enum = enumerate_at(star_graph(), 0, EnumConfig(max_nodes=3, diameter=1))
    assert len(enum) == 7
    sizes = sorted(len(s.edge_set) for s in subgraphs(enum))
    assert sizes == [0, 1, 1, 1, 2, 2, 2]


def test_enumerate_triangle_excludes_cycle():
    g = build_graph([[0.0], [0.0], [0.0]], [(0, 1), (0, 2), (1, 2)])
    enum = enumerate_at(g, 0, EnumConfig(max_nodes=3, diameter=2))
    assert len(enum) == 6
    assert all(len(s.edge_set) < 3 for s in subgraphs(enum))


def test_enumerate_isolated_target():
    g = build_graph([[0.0], [0.0], [0.0]], [(1, 2)])
    enum = enumerate_at(g, 0)
    assert len(enum) == 1
    assert subgraph(enum, 0).edge_set == ()


def test_parent_links_grow_by_one_edge():
    g = random_graph(np.random.default_rng(5), max_nodes=7)
    enum = enumerate_at(g, 0, EnumConfig(max_nodes=4, diameter=3))
    for i, sub in enumerate(subgraphs(enum)):
        parent = enum.parent[i]
        if parent < 0:
            assert sub.edge_set == ()
            continue
        pset = set(subgraph(enum, parent).edge_set)
        assert pset < set(sub.edge_set)
        assert len(sub.edge_set) == len(pset) + 1


def test_diameter_bound_respected():
    # path 0-1-2-3-4, target 0, D=2: node 3 must never appear
    g = build_graph([[0.0]] * 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    enum = enumerate_at(g, 0, EnumConfig(max_nodes=5, diameter=2))
    for sub in subgraphs(enum):
        assert max(sub.node_set) <= 2


@given(st.integers(0, 100_000), st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_enumeration_matches_bruteforce(seed, max_nodes, diameter):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=7)
    v = int(rng.integers(0, g.node_count))
    enum = enumerate_at(g, v, EnumConfig(max_nodes=max_nodes, diameter=diameter))
    keys = [s.edge_set for s in subgraphs(enum)]
    assert len(keys) == len(set(keys)), "duplicate candidate"
    assert set(keys) == brute_force_trees(g, v, max_nodes, diameter)
    for sub in subgraphs(enum):
        assert is_tree_with_target(g.edges, sub.edge_set, v)


def assert_table_matches_recursive_oracle(enum: Enumeration, graph, config, rng):
    ref = recursive_enumeration(graph, enum.ball.target, config)
    assert subgraphs(enum) == ref.subgraphs
    assert enum.parent.tolist() == [-1 if p is None else p for p in ref.parents]
    assert enum.sizes.tolist() == [len(s.node_set) for s in ref.subgraphs]
    for name in ("rows", "depth", "slots"):
        got, want = getattr(enum, name), getattr(ref, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
    assert enum.edge_set_rank.tolist() == ref.edge_set_rank.tolist()

    # Every candidate, subsets of the ball's edges that may or may not be
    # trees, sets with edges outside the ball and sets too large to be one.
    ball_edges = sorted(set(enum.ball.edge.tolist()))
    outside = [e for e in range(graph.edge_count) if e not in ball_edges]
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
    assert_table_matches_recursive_oracle(enumerate_at(g, v, config), g, config, rng)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 3), st.sampled_from([0.15, 0.4, 0.8]))
@settings(max_examples=200, deadline=None)
def test_edge_set_rank_matches_the_lexsort_oracle(seed, max_nodes, diameter, edge_prob):
    # The order of the lookup keys is the order of the padded edge rows,
    # for one-node candidates (no edge columns) too.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=9, edge_prob=edge_prob, min_nodes=1)
    enum = enumerate_at(g, int(rng.integers(0, g.node_count)), EnumConfig(max_nodes, diameter))
    assert enum.edge_set_rank.tolist() == lexsort_edge_set_rank(enum.edge_ids).tolist()


@pytest.mark.parametrize("nodes,target,max_nodes,diameter,hops", [(21, 10, 17, 10, 10), (300, 260, 9, 8, 299)])
def test_lookup_keys_wider_than_63_bits_match_the_oracle(nodes, target, max_nodes, diameter, hops):
    # On a path, 16 edge columns over a 20-edge ball (digits in base 21 would
    # not fit 63 bits), and 8 columns over a 299-edge ball whose edge ids
    # cross 256, so the byte keys must be big-endian to sort as the rows do.
    g = build_graph([[0.0]] * nodes, [(i, i + 1) for i in range(nodes - 1)])
    config = EnumConfig(max_nodes=max_nodes, diameter=diameter)
    enum = enumerate_subgraphs(canonical_order(g, target, hops), config)
    # Paths of a nodes left and b nodes right of the target, a + b < max_nodes.
    left, right = min(diameter, target), min(diameter, nodes - 1 - target)
    assert len(enum) == sum(1 for a in range(left + 1) for b in range(right + 1) if a + b < max_nodes)
    assert_table_matches_recursive_oracle(enum, g, config, np.random.default_rng(0))


def edge_set_pairs(enum, pairs):
    return [(subgraph(enum, e).edge_set, subgraph(enum, c).edge_set) for e, c in pairs]


def test_generate_pairs_chain_with_extreme_rule():
    enum = enumerate_at(three_chain(), 2, EnumConfig(max_nodes=3, diameter=2))
    pairs = set(edge_set_pairs(enum, generate_pairs(enum)))
    # the 3-node explanation may not pair with the bare target, the
    # 2-node explanation has no other option and keeps it
    assert pairs == {((1,), ()), ((0, 1), (1,))}


def test_generate_pairs_single_candidate_none():
    g = build_graph([[0.0], [0.0]], [])
    enum = enumerate_at(g, 0)
    assert generate_pairs(enum).shape == (0, 2)


def test_generate_pairs_star_counts_default_vs_exhaustive():
    enum = enumerate_at(star_graph(), 0, EnumConfig(max_nodes=3, diameter=1))
    assert len(generate_pairs(enum)) == 6
    exhaustive = edge_set_pairs(enum, generate_pairs(enum, exhaustive=True))
    assert len(exhaustive) == 9
    two_edge = [(e, c) for e, c in exhaustive if len(e) == 2]
    assert len(two_edge) == 6
    for e, c in two_edge:
        assert len(c) == 1 and set(c) < set(e)


def test_exhaustive_pairs_superset_of_default():
    g = random_graph(np.random.default_rng(11), max_nodes=7)
    enum = enumerate_at(g, 0, EnumConfig(max_nodes=4, diameter=2))
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


def chain_scorer(graph, model):
    enum = enumerate_at(graph, 2, EnumConfig(max_nodes=4, diameter=2))
    return enum, CandidateScorer(model, enum)


def test_scorer_memoizes_shared_counterfactual(chain_graph, chain_model):
    enum, scorer = chain_scorer(chain_graph, chain_model)
    position = index(enum)
    shared_cf, a, b = position[(1,)], position[(0, 1)], position[(1, 2)]
    scorer.pair(np.array([a]), np.array([shared_cf]))
    scorer.pair(np.array([b]), np.array([shared_cf]))
    assert scorer.forward_count == 3
    assert scorer.hit_count == 1


def test_memoization_semantically_invisible(chain_graph, chain_model):
    enum, scorer = chain_scorer(chain_graph, chain_model)
    pairs = generate_pairs(enum)
    with_memo = scorer.pair(pairs[:, 0], pairs[:, 1])
    for k, (e, c) in enumerate(pairs):
        fresh = CandidateScorer(chain_model, enum)
        assert with_memo[k] == fresh.pair(pairs[k : k + 1, 0], pairs[k : k + 1, 1])[0]
        assert scorer.simulatability[e] == fresh.simulatability[e]
        assert np.array_equal(scorer.distributions[e], fresh.distributions[e])


def test_pair_invariants_reconstruct_bitwise(chain_graph, chain_model):
    enum, scorer = chain_scorer(chain_graph, chain_model)
    pairs = generate_pairs(enum)
    relevance = scorer.pair(pairs[:, 0], pairs[:, 1])
    assert len(pairs)
    for (e, c), rel in zip(pairs, relevance):
        expl, cf = subgraph(enum, e), subgraph(enum, c)
        assert set(cf.edge_set) < set(expl.edge_set)
        removed = enum.removed_nodes(e, c)
        assert len(removed) >= 1
        assert set(removed) == set(expl.node_set) - set(cf.node_set)
        resumed = cf_relevance(scorer.simulatability[e], scorer.simulatability[c], len(removed))
        assert rel == resumed


def test_chain_pair_relevance_frozen(chain_graph, chain_model):
    # the whole chain as explanation vs dropping the far signal node
    enum, scorer = chain_scorer(chain_graph, chain_model)
    position = index(enum)
    e, c = position[(0, 1, 2)], position[(1, 2)]
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
    enum = enumerate_at(g, v, EnumConfig(max_nodes=3, diameter=2))
    scorer = CandidateScorer(m, enum)
    pairs = generate_pairs(enum)
    scorer.pair(pairs[:, 0], pairs[:, 1])
    reference = forward_at(m, g, v)
    for e in pairs[:, 0]:
        assert scorer.simulatability[e] == pytest.approx(
            -sym_kl(reference, scorer.distributions[e]), rel=1e-9, abs=1e-12
        )


@given(st.integers(0, 50_000), st.integers(1, 4), st.booleans(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_a_scorer_with_another_reference_scores_as_a_fresh_one(seed, max_nodes, exhaustive, before, after):
    # A tree's restricted pass reads only the model and the tree: a scorer
    # moved to another reference keeps the distributions, and its
    # simulatability and relevances are the bits of a fresh scorer's.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=7)
    m = random_model(rng, hidden=int(rng.integers(1, 6)), classes=int(rng.integers(2, 4)))
    v = int(rng.integers(0, g.node_count))
    enum = enumerate_at(g, v, EnumConfig(max_nodes=max_nodes, diameter=2))
    pairs = generate_pairs(enum, exhaustive)
    reference = softmax(3.0 * rng.standard_normal(m.class_count))
    first, later = pairs[rng.random(len(pairs)) < before], pairs[rng.random(len(pairs)) < after]
    source = CandidateScorer(m, enum)
    source.pair(first[:, 0], first[:, 1])
    source.candidate(len(enum) - 1)
    moved = source.with_reference(reference)
    fresh = CandidateScorer(m, enum, DEFAULT_EPSILON, reference)
    assert (moved.forward_count, moved.hit_count) == (0, 0)
    assert moved.model_distribution is source.model_distribution
    assert moved.full_distribution.tobytes() == fresh.full_distribution.tobytes()
    assert moved.pair(later[:, 0], later[:, 1]).tobytes() == fresh.pair(later[:, 0], later[:, 1]).tobytes()
    known = set(first.ravel().tolist()) | {len(enum) - 1}
    assert moved.forward_count == len(set(later.ravel().tolist()) - known)
    assert moved.forward_count + moved.hit_count == fresh.forward_count + fresh.hit_count
    # Once the fresh scorer has scored the same trees, the tables agree.
    fresh.pair(first[:, 0], first[:, 1])
    fresh.candidate(len(enum) - 1)
    assert moved.distributions.tobytes() == fresh.distributions.tobytes()
    assert moved.simulatability.tobytes() == fresh.simulatability.tobytes()


def _kept_tree_batches(monkeypatch):
    """Record (trees, nodes per tree) of each scoring batch."""
    batches = []

    def kept(model, features, rows, *args):
        batches.append(rows.shape)
        return moexp.gcn.trees_hidden(model, features, rows, *args)

    monkeypatch.setattr(moexp.explain, "trees_hidden", kept)
    return batches


def _scored(model, graph, enum, pairs, entries):
    """A scorer after a few requests, run under a budget of ``entries``."""
    with mock.patch.object(moexp.gcn, "BATCH_ENTRIES", entries):
        scorer = CandidateScorer(model, enum)
        half = len(pairs) // 2
        scorer.pair(pairs[:half, 0], pairs[:half, 1])
        scorer.candidate(len(enum) - 1)
        scorer.pair(pairs[:, 0], pairs[:, 1])
    return scorer


@given(st.integers(0, 50_000), st.integers(1, 4), st.booleans())
@settings(max_examples=150, deadline=None)
def test_scoring_one_tree_per_run_keeps_the_bits(seed, max_nodes, exhaustive):
    # A budget of one entry scores every tree in a run of its own, and
    # looks up each explanation's counterfactuals on their own.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=7)
    m = random_model(rng, hidden=int(rng.integers(1, 6)), classes=int(rng.integers(2, 4)))
    v = int(rng.integers(0, g.node_count))
    enum = enumerate_at(g, v, EnumConfig(max_nodes=max_nodes, diameter=2))
    pairs = generate_pairs(enum, exhaustive)
    with mock.patch.object(moexp.gcn, "BATCH_ENTRIES", 1):
        assert generate_pairs(enum, exhaustive).tolist() == pairs.tolist()
    with pytest.MonkeyPatch.context() as monkeypatch:
        batches = _kept_tree_batches(monkeypatch)
        one = _scored(m, g, enum, pairs, 1)
    assert batches and all(trees == 1 for trees, _ in batches)
    whole = _scored(m, g, enum, pairs, sys.maxsize)
    assert one.distributions.tobytes() == whole.distributions.tobytes()
    assert one.simulatability.tobytes() == whole.simulatability.tobytes()
    assert (one.forward_count, one.hit_count) == (whole.forward_count, whole.hit_count)


def test_scoring_splits_a_hub_into_bounded_batches(monkeypatch):
    # A 300-leaf star with the hub as target: at C=3 its 44,850 three-node
    # trees do not fit in one batch.
    n = 301
    rng = np.random.default_rng(11)
    graph = build_graph(rng.standard_normal((n, 3)), [(0, v) for v in range(1, n)])
    model = Model(layers=(rng.standard_normal((3, 4)), rng.standard_normal((4, 3))), activation="sigmoid")
    enum = enumerate_at(graph, 0, EnumConfig(max_nodes=3, diameter=1))
    assert np.bincount(enum.sizes).tolist() == [0, 1, n - 1, (n - 1) * (n - 2) // 2]
    pairs = generate_pairs(enum)
    batches = _kept_tree_batches(monkeypatch)
    scorer = CandidateScorer(model, enum)
    scorer.pair(pairs[:, 0], pairs[:, 1])  # one request of every tree
    width = max(d for layer in model.layers for d in layer.shape)
    budget = moexp.gcn.BATCH_ENTRIES
    runs = [trees for trees, k in batches if k == 3]
    assert len(runs) > 1 and sum(runs) == (n - 1) * (n - 2) // 2
    for trees, k in batches:
        assert trees * (k * width + 2 * (k - 1)) <= budget
    for trees in runs[:-1]:  # as large as the budget allows
        assert (trees + 1) * (3 * width + 4) > budget
    batches.clear()
    with mock.patch.object(moexp.gcn, "BATCH_ENTRIES", sys.maxsize):
        whole = CandidateScorer(model, enum)
        whole.pair(pairs[:, 0], pairs[:, 1])
    assert [k for _, k in batches] == [1, 2, 3]  # one call per tree size
    assert scorer.distributions.tobytes() == whole.distributions.tobytes()
    assert scorer.simulatability.tobytes() == whole.simulatability.tobytes()
