import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moexp import EnumConfig, generate_pairs, rank_pairs
from moexp.pareto import _front, _ranks

from conftest import enumerate_at
from oracles import (
    dominates,
    dominates_oracle,
    float_front,
    pareto_oracle,
    random_graph,
    select_balanced,
    select_comprehensive,
)

def front(scores) -> list:
    """``_front``'s flags for a list of (first, second) score pairs, read
    off the two coordinates' ``_ranks``."""
    pairs = np.asarray(scores, dtype=float).reshape(-1, 2)
    return _front(_ranks(pairs[:, 0]), _ranks(pairs[:, 1])).tolist()


def ranks(values) -> list:
    """``_ranks`` of a list of values, as a list."""
    return _ranks(np.asarray(values, dtype=float)).tolist()


score_lists = st.lists(
    st.tuples(st.floats(-10, 0), st.floats(0, 10)), min_size=1, max_size=40
)
# Few distinct values, signed zeros and infinities, so ties are the rule.
tied = st.sampled_from([-np.inf, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.inf])
tied_score_lists = st.lists(st.tuples(tied, tied), max_size=40)


def test_dominates_examples():
    assert dominates((-0.1, 0.5), (-0.2, 0.3))
    assert dominates((-0.1, 0.5), (-0.1, 0.3))
    assert not dominates((-0.1, 0.5), (-0.1, 0.5))
    assert not dominates((-0.1, 0.2), (-0.2, 0.3))
    assert not dominates((-0.2, 0.3), (-0.1, 0.2))


@given(
    st.tuples(st.floats(-5, 0), st.floats(0, 5)),
    st.tuples(st.floats(-5, 0), st.floats(0, 5)),
)
@settings(max_examples=200, deadline=None)
def test_dominates_matches_oracle_and_is_asymmetric(a, b):
    assert dominates(a, b) == dominates_oracle(a, b)
    assert not (dominates(a, b) and dominates(b, a))


def test_competition_ranks_with_ties():
    assert ranks([-0.5, -0.1, -0.5, -0.9]) == [2, 1, 2, 4]
    assert ranks([3.0, 1.0, 2.0]) == [1, 3, 2]
    assert ranks([1.0, 1.0, 1.0]) == [1, 1, 1]


def test_pareto_front_example():
    scores = [(-0.1, 0.5), (-0.2, 0.9), (-0.05, 0.2), (-0.3, 0.4)]
    assert front(scores) == [True, True, True, False]


def test_pareto_front_all_identical():
    assert front([(-0.1, 0.3)] * 4) == [True] * 4


def test_pareto_front_single():
    assert front([(-0.7, 0.0)]) == [True]


@given(score_lists)
@settings(max_examples=250, deadline=None)
def test_pareto_front_matches_quadratic_oracle(scores):
    assert front(scores) == pareto_oracle(scores)


@given(tied_score_lists)
@settings(max_examples=300, deadline=None)
def test_front_of_the_ranks_matches_the_float_sweep_on_ties(scores):
    # -0.0 == 0.0 and the infinities tie with themselves, in the ranks as in
    # the scores, so the flags agree with both float-valued oracles. The
    # float sweep starts its running best at -inf, so it drops the leading
    # entries whose second score is -inf; rank_pairs' second score is an
    # absolute relevance, which is never -inf.
    pairs = np.asarray(scores, dtype=float).reshape(-1, 2)
    flags = front(scores)
    assert flags == pareto_oracle(scores)
    if not (pairs[:, 1] == -np.inf).any():
        assert flags == float_front(pairs[:, 0], pairs[:, 1]).tolist()


def test_select_comprehensive_example():
    # r1 = (1, 2, 3), r2 = (1, 3, 2) -> rank sums (2, 5, 5)
    sel = select_comprehensive([(-0.1, 0.9), (-0.2, 0.1), (-0.3, 0.5)])
    assert sel.sim_ranks == (1, 2, 3)
    assert sel.rel_ranks == (1, 3, 2)
    assert sel.rank_sums == (2, 5, 5)
    assert sel.selected == 0
    assert sel.pareto[0]


def test_select_comprehensive_tie_uses_keys():
    scores = [(-0.2, 0.4), (-0.2, 0.4)]
    sel = select_comprehensive(scores, tie_keys=[(3, (0, 1, 2), (0,)), (2, (0, 1), (0,))])
    assert sel.rank_sums == (2, 2)
    assert sel.selected == 1


def test_select_comprehensive_tie_without_keys_first_index():
    sel = select_comprehensive([(-0.2, 0.4), (-0.2, 0.4)])
    assert sel.selected == 0


def test_selected_never_dominated_fixture():
    scores = [(-0.4, 0.2), (-0.1, 0.8), (-0.3, 0.9), (-0.05, 0.1), (-0.2, 0.2)]
    sel = select_comprehensive(scores)
    chosen = scores[sel.selected]
    assert all(not dominates(s, chosen) for s in scores)


def test_select_balanced_prefers_middle():
    # scores shaped so the ranks are (1,3),(2,2),(3,1): balance picks the middle
    scores = [(-0.1, 0.1), (-0.2, 0.5), (-0.3, 0.9)]
    sel = select_balanced(scores)
    assert sel.selected == 1


def test_select_balanced_dent_example():
    # A: best sim, worst rel; B: middle on both; C: worst sim, best rel.
    # all three tie on rank sum, but |r1 - r2| = 2, 0, 2 singles out B
    scores = [(-0.05, 0.1), (-0.1, 0.5), (-0.9, 0.9)]
    sel = select_balanced(scores)
    assert sel.rank_sums == (4, 4, 4)
    assert sel.selected == 1


def test_select_balanced_tie_breaks_by_rank_sum():
    # both ends perfectly balanced, middle unbalanced: lowest R among balanced wins
    scores = [(-0.1, 0.9), (-0.5, 0.5), (-0.9, 0.1)]
    sel = select_balanced(scores)
    assert abs(sel.sim_ranks[sel.selected] - sel.rel_ranks[sel.selected]) == 0
    r = sel.rank_sums
    balanced = [i for i in range(3) if sel.sim_ranks[i] == sel.rel_ranks[i]]
    assert sel.selected == min(balanced, key=lambda i: r[i])


@given(score_lists)
@settings(max_examples=200, deadline=None)
def test_comprehensive_choice_is_never_dominated(scores):
    sel = select_comprehensive(scores)
    chosen = scores[sel.selected]
    for other in scores:
        assert not dominates(other, chosen)
    assert sel.pareto[sel.selected]


@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(2, 5), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_rank_pairs_selection_is_never_dominated(seed, exhaustive, max_nodes, diameter):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=7, edge_prob=0.5)
    enum = enumerate_at(g, int(rng.integers(0, g.node_count)), EnumConfig(max_nodes, diameter))
    pairs = generate_pairs(enum, exhaustive)
    assume(len(pairs))
    # Few distinct values, so that both objectives tie often.
    simulatability = -rng.choice([0.0, 0.25, 0.5, 2.0], size=len(enum))
    relevance = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 3.0], size=len(pairs))
    front = rank_pairs(enum, simulatability, pairs, relevance, "comprehensive")
    scores = list(zip(simulatability[pairs[:, 0]].tolist(), np.abs(relevance).tolist()))
    chosen = scores[front.selected]
    assert not any(dominates_oracle(other, chosen) for other in scores)
    assert front.pareto[front.selected]
    assert front.pareto.tolist() == pareto_oracle(scores)
    assert front.order[0] == front.selected


@given(score_lists)
@settings(max_examples=100, deadline=None)
def test_ranks_invariant_under_monotone_transform(scores):
    # strictly increasing maps applied per objective leave every rank unchanged
    warped = [(np.tanh(s) * 3.0, r**3 + 2.0 * r) for s, r in scores]
    # In floating point tanh can round two inputs near -10 to one value, and
    # then the map is not strictly increasing on the draw.
    for k in (0, 1):
        assume(len({p[k] for p in scores}) == len({p[k] for p in warped}))
    a = select_comprehensive(scores)
    b = select_comprehensive(warped)
    assert a.sim_ranks == b.sim_ranks
    assert a.rel_ranks == b.rel_ranks
    assert a.selected == b.selected


@given(score_lists, st.integers(0, 1000))
@settings(max_examples=100, deadline=None)
def test_selection_stable_under_permutation(scores, seed):
    # rank sums are order-free; without tie keys distinct pairs may share the
    # minimum, so only the achieved rank sum must agree across orderings
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(scores))
    shuffled = [scores[i] for i in perm]
    a = select_comprehensive(scores)
    b = select_comprehensive(shuffled)
    assert a.rank_sums[a.selected] == b.rank_sums[b.selected]
    assert sorted(a.rank_sums) == sorted(b.rank_sums)
    for other in scores:
        assert not dominates(other, shuffled[b.selected])


@given(score_lists, st.data())
@settings(max_examples=200, deadline=None)
def test_order_and_picks_match_brute_force(scores, data):
    n = len(scores)
    keys = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    comp = select_comprehensive(scores, tie_keys=keys)
    bal = select_balanced(scores, tie_keys=keys)
    for sel in (comp, bal):
        assert list(sel.sim_ranks) == [1 + sum(t[0] > s[0] for t in scores) for s in scores]
        assert list(sel.rel_ranks) == [1 + sum(t[1] > s[1] for t in scores) for s in scores]
        assert sel.order == tuple(sorted(range(n), key=lambda i: (sel.rank_sums[i], keys[i], i)))
    assert comp.selected == comp.order[0]
    gaps = [abs(a - b) for a, b in zip(bal.sim_ranks, bal.rel_ranks)]
    assert bal.selected == min(range(n), key=lambda i: (gaps[i], bal.rank_sums[i], keys[i], i))
    plain = select_comprehensive(scores)
    assert plain.order == tuple(sorted(range(n), key=lambda i: (plain.rank_sums[i], i)))


def test_empty_scores():
    with pytest.raises(ValueError, match="at least one"):
        select_comprehensive([])
    assert front([]) == []
