import gc
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moexp import (
    CandidateScorer,
    EnumConfig,
    build_graph,
    canonical_order,
    derive_seed,
    explain_node,
    explain_scored,
    random_weights,
    simulatability,
)
from moexp.baselines import grow_table
from moexp.io import load_edge_weights, load_graph, load_model
from moexp.pipeline import METHODS

from conftest import enumerate_at, forward_at
from oracles import (
    explanation,
    index,
    is_tree_with_target,
    random_graph,
    random_model,
    reference_ranking,
    restricted_forward,
    subgraph,
    subgraphs,
    sym_kl,
)

GOLDEN_INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"


def test_method_catalogue():
    assert METHODS == (
        "pareto-rank",
        "balanced",
        "random",
        "shapley",
        "grad-fd",
        "grad-analytic",
        "external-weights",
    )


def test_chain_rank_selection_frozen(chain_graph, chain_model):
    res = explain_node(chain_model, chain_graph, 2)
    assert res.method == "pareto-rank"
    assert res.candidate_count == 6
    assert res.pair_count == 6
    sel = res.front.selected
    e, c = res.front.e[sel], res.front.c[sel]
    enum = res.scorer.enumeration
    assert explanation(res) == subgraph(enum, e)
    assert explanation(res).edge_set == (1,)
    assert explanation(res).node_set == (1, 2)
    assert res.scorer.simulatability[res.explanation] == -0.08662254246870793
    assert subgraph(enum, c).edge_set == ()
    assert enum.removed_nodes(e, c) == [1]
    assert res.front.relevance[sel] == 0.1929366323464467
    assert (res.front.sim_ranks[sel], res.front.rel_ranks[sel]) == (5, 1)
    assert res.front.rank_sums[sel] == 6
    assert res.front.front_size == 4
    assert res.distinct_evaluations == 6
    assert res.memo_hits == 6
    assert res.predicted_class == 0
    assert res.full_distribution[0] == 0.8495477739862124


def test_every_method_returns_valid_trees(chain_graph, chain_model):
    for method in METHODS:
        kwargs = {"edge_weights": {0: 0.9, 1: 0.2, 2: 0.8}} if method == "external-weights" else {}
        res = explain_node(chain_model, chain_graph, 2, method=method, **kwargs)
        assert res.method == method
        assert 2 in explanation(res).node_set
        assert is_tree_with_target(chain_graph.edges, explanation(res).edge_set, 2)
        if res.front is not None:
            cf = subgraph(res.scorer.enumeration, res.front.c[res.front.selected])
            assert set(cf.node_set) < set(explanation(res).node_set)


def test_weight_methods_explain_their_grown_tree(chain_graph, chain_model):
    cfg = EnumConfig(max_nodes=4, diameter=2)
    res = explain_node(chain_model, chain_graph, 2, cfg, method="random", seed=7)
    ball = canonical_order(chain_graph, 2, 2)
    grown = subgraph(grow_table(random_weights(ball, cfg.diameter, 7), ball, cfg.max_nodes), -1)
    assert explanation(res).edge_set == grown.edge_set


def test_external_weights_steer_growth(chain_graph, chain_model):
    res = explain_node(
        chain_model, chain_graph, 2,
        EnumConfig(max_nodes=2, diameter=2),
        method="external-weights",
        edge_weights={1: 0.1, 2: 0.9},
    )
    assert explanation(res).edge_set == (2,)


def test_external_weights_required(chain_graph, chain_model):
    with pytest.raises(ValueError, match="requires edge weights"):
        explain_node(chain_model, chain_graph, 2, method="external-weights")


def test_unknown_method_rejected(chain_graph, chain_model):
    with pytest.raises(ValueError, match="unknown method"):
        explain_node(chain_model, chain_graph, 2, method="bogus")


def test_isolated_target_degenerates_gracefully(chain_model):
    from moexp import build_graph

    g = build_graph([[1.0], [0.0]], [])
    res = explain_node(chain_model, g, 0)
    assert res.front is None
    assert explanation(res).edge_set == ()
    assert res.pair_count == 0
    assert res.candidate_count == 1


def test_exhaustive_widens_the_pairing(chain_graph, chain_model):
    base = explain_node(chain_model, chain_graph, 2)
    wide = explain_node(chain_model, chain_graph, 2, exhaustive_cf=True)
    assert wide.pair_count >= base.pair_count
    assert wide.candidate_count == base.candidate_count


def test_reference_distribution_shifts_scores(chain_graph, chain_model):
    skewed = np.array([0.05, 0.95])
    scorer = CandidateScorer(chain_model, enumerate_at(chain_graph, 2), 1e-9, skewed)
    res = explain_scored(scorer, "pareto-rank", 42, False, None)
    assert res.scorer.simulatability[res.explanation] == pytest.approx(
        -sym_kl(skewed, res.scorer.distributions[res.explanation]), rel=1e-9, abs=1e-12
    )
    # the override becomes the reported full prediction, as in the
    # message-perturbation rescoring path
    assert np.array_equal(res.full_distribution, skewed)
    assert scorer.model_distribution is None


def test_precomputed_enumeration_reused(chain_graph, chain_model):
    cfg = EnumConfig(max_nodes=4, diameter=2)
    scorer = CandidateScorer(chain_model, enumerate_at(chain_graph, 2, cfg))
    a = explain_scored(scorer, "pareto-rank", 42, False, None)
    b = explain_node(chain_model, chain_graph, 2, cfg)
    assert a.candidate_count == b.candidate_count
    assert explanation(a).edge_set == explanation(b).edge_set
    # A second run on the scorer scores nothing again.
    again = explain_scored(scorer, "balanced", 42, False, None)
    assert again.distinct_evaluations == a.distinct_evaluations == b.distinct_evaluations


def test_same_seed_reproducible_random_method(chain_graph, chain_model):
    a = explain_node(chain_model, chain_graph, 2, method="random", seed=13)
    b = explain_node(chain_model, chain_graph, 2, method="random", seed=13)
    assert explanation(a).edge_set == explanation(b).edge_set


def test_balanced_selection_minimizes_rank_gap(chain_graph, chain_model):
    res = explain_node(chain_model, chain_graph, 2, method="balanced")
    front = res.front
    gaps = [abs(a - b) for a, b in zip(front.sim_ranks, front.rel_ranks)]
    assert gaps[front.selected] == min(gaps)
    assert explanation(res).edge_set == (1, 2)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 2), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_grown_tree_outside_the_search_is_scored_from_its_growth_table(seed, max_nodes, diameter, depth):
    # External weights on every edge can grow a tree past the D-hop search.
    # Such a tree's own scorer, over its growth table, becomes the result's:
    # it scores the tree against the search scorer's reference, with the
    # bits of a pass over the tree alone, and its one pass is the counts.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=10, edge_prob=0.35, min_nodes=1)
    m = random_model(rng, hidden=int(rng.integers(1, 13)), classes=int(rng.integers(2, 4)), depth=depth)
    v = int(rng.integers(0, g.node_count))
    weights = dict(enumerate(rng.random(g.edge_count).tolist()))
    config = EnumConfig(max_nodes=max_nodes, diameter=diameter)
    res = explain_node(m, g, v, config, method="external-weights", edge_weights=weights)
    table = grow_table(weights, canonical_order(g, v, max_nodes - 1), max_nodes)
    grown = subgraph(table, -1)
    assert explanation(res) == grown
    search = enumerate_at(g, v, config)
    assert res.candidate_count == len(search)
    counts = (res.distinct_evaluations, res.memo_hits)
    assert counts == (res.scorer.forward_count, res.scorer.hit_count)
    if grown.edge_set in index(search):
        assert len(res.scorer.enumeration) == len(search)
        return
    assert res.front is None and res.pair_count == 0
    assert res.scorer.enumeration.parent.tolist() == table.parent.tolist() and res.explanation == len(table) - 1
    want = restricted_forward(m, g, v, grown)
    assert res.scorer.distributions[res.explanation].tobytes() == want.tobytes()
    assert float.hex(res.scorer.simulatability[res.explanation]) == float.hex(simulatability(res.full_distribution, want))
    assert res.full_distribution.tobytes() == forward_at(m, g, v).tobytes()
    assert counts == (1, 0)


@pytest.mark.parametrize("method", METHODS)
def test_the_explanation_is_a_row_of_the_scorers_table(method):
    # At D = 1 the golden motif's external weights grow some trees past the
    # search; their rows are in the grown tree's own table.
    g = load_graph(GOLDEN_INPUTS / "motif.json")
    m = load_model(GOLDEN_INPUTS / "motif_weights.json")
    weights = load_edge_weights(GOLDEN_INPUTS / "motif_edge_weights.json")
    config = EnumConfig(max_nodes=4, diameter=1)
    grown = []
    for v in range(g.node_count):
        res = explain_node(m, g, v, config, method=method, seed=v, edge_weights=weights)
        table = res.scorer.enumeration
        assert 0 <= res.explanation < len(table)
        want = restricted_forward(m, g, v, subgraph(table, res.explanation))
        assert res.scorer.distributions[res.explanation].tobytes() == want.tobytes()
        if res.front is not None:
            assert res.front.e[res.front.selected] == res.explanation
        grown.append(len(table) != res.candidate_count)
    assert any(grown) == (method == "external-weights")


@given(st.integers(0, 50_000), st.booleans(), st.booleans(), st.sampled_from(["pareto-rank", "balanced"]))
@settings(max_examples=80, deadline=None)
def test_index_pairs_match_object_reference(seed, flat, exhaustive, method):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=6)
    if flat:
        # All-zero features tie every score, so the tie keys alone fix the order.
        g = build_graph(np.zeros_like(g.features), g.edges)
    m = random_model(rng)
    v = int(rng.integers(0, g.node_count))
    res = explain_node(m, g, v, EnumConfig(max_nodes=4, diameter=2), method=method, exhaustive_cf=exhaustive)
    if res.front is None:
        assert res.pair_count == 0
        return
    front, subs = res.front, subgraphs(res.scorer.enumeration)
    pairs = [(subs[e], subs[c]) for e, c in zip(front.e, front.c)]
    strategy = "comprehensive" if method == "pareto-rank" else "balanced"
    relevance, sim_ranks, rel_ranks, pareto, order, selected = reference_ranking(m, g, v, pairs, strategy)
    assert front.relevance.tobytes() == np.array(relevance).tobytes()
    assert front.sim_ranks.tolist() == sim_ranks
    assert front.rel_ranks.tolist() == rel_ranks
    assert front.pareto.tolist() == pareto
    assert front.order.tolist() == order
    assert front.selected == selected


# (distinct_evaluations, memo_hits) at targets 0, 2 and 5 of the golden motif
# graph, with the golden test's seed and edge weights. The benchmark's
# explain.memo_hit_ratio is computed from these two counts.
FROZEN_COUNTS = {
    ("pareto-rank", False): [(28, 54), (8, 12), (5, 5)],
    ("pareto-rank", True): [(28, 136), (8, 18), (5, 7)],
    ("balanced", False): [(28, 54), (8, 12), (5, 5)],
    ("balanced", True): [(28, 136), (8, 18), (5, 7)],
    ("random", False): [(3, 1), (3, 1), (3, 1)],
    ("random", True): [(5, 3), (4, 2), (4, 2)],
    ("shapley", False): [(28, 76), (8, 14), (5, 7)],
    ("shapley", True): [(28, 76), (8, 14), (5, 7)],
    ("grad-fd", False): [(3, 1), (3, 1), (3, 1)],
    ("grad-fd", True): [(5, 3), (4, 2), (4, 2)],
    ("grad-analytic", False): [(3, 1), (3, 1), (3, 1)],
    ("grad-analytic", True): [(7, 5), (4, 2), (4, 2)],
    ("external-weights", False): [(3, 1), (1, 0), (3, 1)],
    ("external-weights", True): [(5, 3), (1, 0), (4, 2)],
}


def test_memo_counts_frozen_on_golden_motif():
    g = load_graph(GOLDEN_INPUTS / "motif.json")
    m = load_model(GOLDEN_INPUTS / "motif_weights.json")
    weights = load_edge_weights(GOLDEN_INPUTS / "motif_edge_weights.json")
    counts = {}
    for method in METHODS:
        for exhaustive in (False, True):
            counts[method, exhaustive] = [
                (res.distinct_evaluations, res.memo_hits)
                for res in (
                    explain_node(m, g, node, method=method, seed=derive_seed(7, node),
                                 exhaustive_cf=exhaustive, edge_weights=weights)
                    for node in (0, 2, 5)
                )
            ]
    assert counts == FROZEN_COUNTS


@pytest.mark.parametrize("method", METHODS)
def test_explain_node_leaves_no_reference_cycle(method):
    # Reference counts alone free a node's work: with the cyclic collector
    # off, a collection afterwards finds nothing.
    g = load_graph(GOLDEN_INPUTS / "motif.json")
    m = load_model(GOLDEN_INPUTS / "motif_weights.json")
    weights = load_edge_weights(GOLDEN_INPUTS / "motif_edge_weights.json")
    explain_node(m, g, 0, EnumConfig(4, 2), method=method, edge_weights=weights)  # imports what the method uses
    gc.collect()
    gc.disable()
    try:
        explain_node(m, g, 0, EnumConfig(4, 2), method=method, edge_weights=weights)
        assert gc.collect() == 0
    finally:
        gc.enable()
