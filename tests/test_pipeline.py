import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moexp import (
    EnumConfig,
    build_graph,
    derive_seed,
    enumerate_subgraphs,
    explain_node,
    forward,
    grow_subgraph,
    random_weights,
    simulatability,
    validate_subgraph,
)
from moexp.io import load_edge_weights, load_graph, load_model
from moexp.pipeline import METHODS

from oracles import random_graph, random_model, reference_ranking, restricted_forward, sym_kl

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
    assert res.explanation == enum.subgraphs[e]
    assert res.explanation.edge_set == (1,)
    assert res.explanation.node_set == (1, 2)
    assert res.explanation_simulatability == -0.08662254246870793
    assert enum.subgraphs[c].edge_set == ()
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
        assert 2 in res.explanation.node_set
        assert validate_subgraph(chain_graph, res.explanation) is None
        if res.front is not None:
            cf = res.scorer.enumeration.subgraphs[res.front.c[res.front.selected]]
            assert set(cf.node_set) < set(res.explanation.node_set)


def test_weight_methods_explain_their_grown_tree(chain_graph, chain_model):
    cfg = EnumConfig(max_nodes=4, diameter=2)
    res = explain_node(chain_model, chain_graph, 2, cfg, method="random", seed=7)
    weights = random_weights(chain_graph, 2, cfg, 7)
    grown = grow_subgraph(weights, chain_graph, 2, cfg.max_nodes)
    assert res.explanation.edge_set == grown.edge_set


def test_external_weights_steer_growth(chain_graph, chain_model):
    res = explain_node(
        chain_model, chain_graph, 2,
        EnumConfig(max_nodes=2, diameter=2),
        method="external-weights",
        edge_weights={1: 0.1, 2: 0.9},
    )
    assert res.explanation.edge_set == (2,)


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
    assert res.explanation.edge_set == ()
    assert res.pair_count == 0
    assert res.candidate_count == 1


def test_exhaustive_widens_the_pairing(chain_graph, chain_model):
    base = explain_node(chain_model, chain_graph, 2)
    wide = explain_node(chain_model, chain_graph, 2, exhaustive_cf=True)
    assert wide.pair_count >= base.pair_count
    assert wide.candidate_count == base.candidate_count


def test_reference_distribution_shifts_scores(chain_graph, chain_model):
    skewed = np.array([0.05, 0.95])
    res = explain_node(chain_model, chain_graph, 2, reference_distribution=skewed)
    assert res.explanation_simulatability == pytest.approx(
        -sym_kl(skewed, res.explanation_distribution), rel=1e-9, abs=1e-12
    )
    # the override becomes the reported full prediction, as in the
    # message-perturbation rescoring path
    assert np.array_equal(res.full_distribution, skewed)


def test_precomputed_enumeration_reused(chain_graph, chain_model):
    cfg = EnumConfig(max_nodes=4, diameter=2)
    enum = enumerate_subgraphs(chain_graph, 2, cfg)
    a = explain_node(chain_model, chain_graph, 2, cfg, enumeration=enum)
    b = explain_node(chain_model, chain_graph, 2, cfg)
    assert a.candidate_count == b.candidate_count
    assert a.explanation.edge_set == b.explanation.edge_set
    with pytest.raises(ValueError, match="different target"):
        explain_node(chain_model, chain_graph, 3, cfg, enumeration=enum)


def test_same_seed_reproducible_random_method(chain_graph, chain_model):
    a = explain_node(chain_model, chain_graph, 2, method="random", seed=13)
    b = explain_node(chain_model, chain_graph, 2, method="random", seed=13)
    assert a.explanation.edge_set == b.explanation.edge_set


def test_fd_step_is_plumbed(chain_graph, chain_model):
    res = explain_node(chain_model, chain_graph, 2, method="grad-fd", fd_step=0.3)
    assert res.explanation.edge_set
    with pytest.raises(ValueError, match="step"):
        explain_node(chain_model, chain_graph, 2, method="grad-fd", fd_step=0.0)


def test_balanced_selection_minimizes_rank_gap(chain_graph, chain_model):
    res = explain_node(chain_model, chain_graph, 2, method="balanced")
    front = res.front
    gaps = [abs(a - b) for a, b in zip(front.sim_ranks, front.rel_ranks)]
    assert gaps[front.selected] == min(gaps)
    assert res.explanation.edge_set == (1, 2)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 2), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_grown_tree_outside_the_search_is_scored_from_its_growth_table(seed, max_nodes, diameter, depth):
    # External weights on every edge can grow a tree past the D-hop search.
    # Such a tree is scored from its own growth table, against the main
    # scorer's reference, with the bits of a pass over the tree alone, and
    # its one pass adds (1, 0) to the counts.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=10, edge_prob=0.35, min_nodes=1)
    m = random_model(rng, hidden=int(rng.integers(1, 13)), classes=int(rng.integers(2, 4)), depth=depth)
    v = int(rng.integers(0, g.node_count))
    weights = dict(enumerate(rng.random(g.edge_count).tolist()))
    config = EnumConfig(max_nodes=max_nodes, diameter=diameter)
    res = explain_node(m, g, v, config, method="external-weights", edge_weights=weights)
    grown = grow_subgraph(weights, g, v, max_nodes)
    assert res.explanation == grown
    extra = (res.distinct_evaluations - res.scorer.forward_count, res.memo_hits - res.scorer.hit_count)
    if grown.edge_set in res.scorer.enumeration.index:
        assert extra == (0, 0)
        return
    assert res.front is None and res.pair_count == 0
    want = restricted_forward(m, g, v, grown)
    assert res.explanation_distribution.tobytes() == want.tobytes()
    assert float.hex(res.explanation_simulatability) == float.hex(simulatability(res.full_distribution, want))
    assert extra == (1, 0)


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
    front, subs = res.front, res.scorer.enumeration.subgraphs
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
