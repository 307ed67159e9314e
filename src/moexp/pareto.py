"""Pareto dominance and rank-based selection over scored pairs.

Scores are (simulatability, abs_relevance) tuples and both coordinates are
maximized. Ranks use competition ranking (ties share the smallest position,
the next distinct value resumes after the tie block), and the selection
minimizes the rank sum, which provably lands on the Pareto front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def dominates(a, b) -> bool:
    """True when a is at least as good as b in both coordinates and better in one."""
    return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


def _reject_nan(values) -> None:
    # NaN compares unequal to itself, so no tie scan below could group it.
    for i, value in enumerate(values):
        if value != value:
            raise ValueError(f"non-finite score at index {i}: {value}")


def pareto_front(scores) -> list:
    """Flag the non-dominated entries via a single descending sweep.

    Sorting by the first coordinate groups exact ties; inside a group only
    entries matching the group's best second coordinate survive, and only
    if no strictly-better first coordinate already reached that second
    coordinate. Equivalent to the quadratic all-pairs check.
    """
    n = len(scores)
    _reject_nan(s[0] for s in scores)
    _reject_nan(s[1] for s in scores)
    flags = [False] * n
    if n == 0:
        return flags
    order = sorted(range(n), key=lambda i: (-scores[i][0], -scores[i][1]))
    best_prev = -math.inf
    i = 0
    while i < n:
        j = i
        first = scores[order[i]][0]
        while j < n and scores[order[j]][0] == first:
            j += 1
        group = order[i:j]
        group_best = max(scores[k][1] for k in group)
        if group_best > best_prev:
            for k in group:
                if scores[k][1] == group_best:
                    flags[k] = True
            best_prev = group_best
        i = j
    return flags


def competition_ranks(values) -> list:
    """1-based descending ranks; tied values share 1 + (count strictly better)."""
    _reject_nan(values)
    order = sorted(range(len(values)), key=lambda i: -values[i])
    ranks = [0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and values[order[j]] == values[order[i]]:
            j += 1
        for k in range(i, j):
            ranks[order[k]] = i + 1
        i = j
    return ranks


@dataclass(frozen=True)
class Selection:
    """Per-pair ranks plus the index picked by the selection rule."""

    sim_ranks: tuple
    rel_ranks: tuple
    rank_sums: tuple
    pareto: tuple
    selected: int


def _argmin(values, tie_keys):
    best = min(values)
    candidates = [i for i, v in enumerate(values) if v == best]
    if tie_keys is None or len(candidates) == 1:
        return candidates[0]
    return min(candidates, key=lambda i: tie_keys[i])


def _ranked(scores):
    sim_ranks = competition_ranks([s[0] for s in scores])
    rel_ranks = competition_ranks([s[1] for s in scores])
    sums = [a + b for a, b in zip(sim_ranks, rel_ranks)]
    return sim_ranks, rel_ranks, sums


def select_comprehensive(scores, tie_keys=None) -> Selection:
    """Pick the minimal rank sum; ties fall back to the given sort keys."""
    scores = list(scores)
    if not scores:
        raise ValueError("at least one scored pair required")
    sim_ranks, rel_ranks, sums = _ranked(scores)
    selected = _argmin(sums, tie_keys)
    return Selection(tuple(sim_ranks), tuple(rel_ranks), tuple(sums), tuple(pareto_front(scores)), selected)


def select_balanced(scores, tie_keys=None) -> Selection:
    """Pick the pair whose two ranks are closest, favoring small rank sums.

    The primary key is |sim_rank - rel_rank|, the secondary key the rank
    sum, and remaining ties fall back to the given sort keys.
    """
    scores = list(scores)
    if not scores:
        raise ValueError("at least one scored pair required")
    sim_ranks, rel_ranks, sums = _ranked(scores)
    gaps = [(abs(a - b), s) for a, b, s in zip(sim_ranks, rel_ranks, sums)]
    selected = _argmin(gaps, tie_keys)
    return Selection(tuple(sim_ranks), tuple(rel_ranks), tuple(sums), tuple(pareto_front(scores)), selected)


@dataclass(frozen=True, eq=False)
class ScoredFront:
    """A ranked pair population and the pair the strategy picked."""

    pairs: tuple
    sim_ranks: tuple
    rel_ranks: tuple
    rank_sums: tuple
    pareto: tuple
    selected: int

    @property
    def front_size(self) -> int:
        return sum(1 for f in self.pareto if f)

    @property
    def selected_pair(self):
        return self.pairs[self.selected]


def pair_scores(pairs):
    return [(p.explanation.simulatability, p.abs_relevance) for p in pairs]


def pair_tie_keys(pairs):
    # Reproducibility needs a total order: smaller explanations win, then
    # canonical edge sets of the explanation, then of the counterfactual.
    return [
        (
            len(p.explanation.subgraph.node_set),
            p.explanation.subgraph.edge_set,
            p.counterfactual.subgraph.edge_set,
        )
        for p in pairs
    ]


def rank_pairs(pairs, strategy: str = "comprehensive") -> ScoredFront:
    """Rank scored pairs and select one by the named strategy."""
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("at least one scored pair required")
    scores = pair_scores(pairs)
    keys = pair_tie_keys(pairs)
    if strategy == "comprehensive":
        sel = select_comprehensive(scores, keys)
    elif strategy == "balanced":
        sel = select_balanced(scores, keys)
    else:
        raise ValueError(f"unknown strategy: {strategy!r}")
    return ScoredFront(pairs, sel.sim_ranks, sel.rel_ranks, sel.rank_sums, sel.pareto, sel.selected)
