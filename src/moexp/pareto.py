"""Pareto dominance and rank-based selection over scored pairs.

Scores are (simulatability, abs_relevance) tuples and both coordinates are
maximized. Ranks use competition ranking (ties share the smallest position,
the next distinct value resumes after the tie block), and the selection
minimizes the rank sum, which provably lands on the Pareto front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


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
    keys = -np.asarray(values, dtype=float)
    return (np.searchsorted(np.sort(keys), keys, side="left") + 1).tolist()


@dataclass(frozen=True, eq=False)
class ScoredFront:
    """Per-pair ranks, the listing order, and the index the strategy picked.

    ``order`` lists every index by (rank sum, tie key, index). ``pairs`` holds the
    ranked pairs when the front came from ``rank_pairs``.
    """

    sim_ranks: tuple
    rel_ranks: tuple
    rank_sums: tuple
    pareto: tuple
    order: tuple
    selected: int
    pairs: tuple = ()

    @property
    def front_size(self) -> int:
        return sum(1 for f in self.pareto if f)

    @property
    def selected_pair(self):
        return self.pairs[self.selected]


def _select(scores, tie_keys, balanced: bool) -> ScoredFront:
    scores = list(scores)
    if not scores:
        raise ValueError("at least one scored pair required")
    sim_ranks = competition_ranks([s[0] for s in scores])
    rel_ranks = competition_ranks([s[1] for s in scores])
    sums = [a + b for a, b in zip(sim_ranks, rel_ranks)]
    keys = range(len(scores)) if tie_keys is None else tie_keys
    order = sorted(range(len(scores)), key=lambda i: (sums[i], keys[i]))
    selected = order[0]
    if balanced:
        gaps = [abs(a - b) for a, b in zip(sim_ranks, rel_ranks)]
        best = min(gaps)
        selected = next(i for i in order if gaps[i] == best)
    return ScoredFront(
        tuple(sim_ranks), tuple(rel_ranks), tuple(sums), tuple(pareto_front(scores)), tuple(order), selected
    )


def select_comprehensive(scores, tie_keys=None) -> ScoredFront:
    """Pick the minimal rank sum; ties fall back to the given sort keys, then the index."""
    return _select(scores, tie_keys, balanced=False)


def select_balanced(scores, tie_keys=None) -> ScoredFront:
    """Pick the pair whose two ranks are closest, favoring small rank sums.

    The primary key is |sim_rank - rel_rank|, the secondary key the rank
    sum, and remaining ties fall back to the given sort keys, then the index.
    """
    return _select(scores, tie_keys, balanced=True)


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
    if strategy not in ("comprehensive", "balanced"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    front = _select(pair_scores(pairs), pair_tie_keys(pairs), strategy == "balanced")
    return replace(front, pairs=pairs)
