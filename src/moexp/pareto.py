"""Pareto fronts and rank-based selection over scored pairs.

Scores are (simulatability, absolute relevance) and both coordinates are
maximized. Ranks use competition ranking (ties share the smallest position,
the next distinct value resumes after the tie block), and the selection
minimizes the rank sum, which provably lands on the Pareto front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _ranks(values: np.ndarray) -> np.ndarray:
    """1-based descending ranks; tied values share 1 + (count strictly better)."""
    # NaN compares unequal to itself, so no rank could place it.
    bad = np.flatnonzero(values != values)
    if bad.size:
        raise ValueError(f"non-finite score at index {bad[0]}: {values[bad[0]]}")
    return np.searchsorted(np.sort(-values), -values, side="left") + 1


def _front(sim_ranks: np.ndarray, rel_ranks: np.ndarray) -> np.ndarray:
    """Flag the non-dominated entries, read off the two ``_ranks`` arrays.

    Competition ranks keep every tie and every strict order of the scores,
    so an entry is dominated exactly when another entry of its first rank
    has a better second rank, or one of a better first rank has a second
    rank no worse. One bucket minimum per first rank and a prefix minimum
    over the buckets answer both (the maxima sweep of Kung, Luccio and
    Preparata, 1975). Equivalent to the quadratic all-pairs check.
    """
    best = np.full(sim_ranks.size + 1, sim_ranks.size + 1)
    np.minimum.at(best, sim_ranks, rel_ranks)
    before = np.minimum.accumulate(best)
    return (rel_ranks == best[sim_ranks]) & (rel_ranks < before[sim_ranks - 1])


@dataclass(frozen=True, eq=False)
class ScoredFront:
    """Per-pair ranks, the listing order, and the index the strategy picked.

    ``sim_ranks``, ``rel_ranks``, ``pareto``, ``e``, ``c`` and
    ``relevance`` hold one value per pair: its two ranks, whether it is on
    the front, its explanation and counterfactual positions and its
    relevance. ``order`` lists every index by (rank sum, tie key, index).
    """

    sim_ranks: np.ndarray
    rel_ranks: np.ndarray
    pareto: np.ndarray
    order: np.ndarray
    selected: int
    e: np.ndarray
    c: np.ndarray
    relevance: np.ndarray

    @property
    def rank_sums(self) -> np.ndarray:
        return self.sim_ranks + self.rel_ranks

    @property
    def front_size(self) -> int:
        return int(np.count_nonzero(self.pareto))


def _select(first: np.ndarray, second: np.ndarray, tie_keys, balanced: bool) -> tuple:
    """Both objectives' ranks, the listing order and the pick; ``tie_keys``
    are integer arrays, most significant first."""
    if first.size == 0:
        raise ValueError("at least one scored pair required")
    sim_ranks = _ranks(first)
    rel_ranks = _ranks(second)
    order = np.lexsort((*tie_keys[::-1], sim_ranks + rel_ranks))
    selected = order[0]
    if balanced:
        gaps = np.abs(sim_ranks - rel_ranks)
        selected = order[np.argmax(gaps[order] == gaps.min())]
    return sim_ranks, rel_ranks, order, int(selected)


def rank_pairs(enumeration, simulatability, pairs, relevance, strategy: str = "comprehensive") -> ScoredFront:
    """Rank (explanation, counterfactual) position pairs and select one by the named strategy.

    The objectives are the explanation's ``simulatability`` (one value per
    candidate of ``enumeration``) and the pair's absolute ``relevance``.
    Reproducibility needs a total order, so rank-sum ties fall back to the
    explanation's size, then the sorted-edge-set position of the
    explanation, then of the counterfactual.
    """
    if strategy not in ("comprehensive", "balanced"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    e, c = pairs[:, 0], pairs[:, 1]
    rank = enumeration.edge_set_rank
    keys = [enumeration.sizes[e], rank[e], rank[c]]
    balanced = strategy == "balanced"
    sim_ranks, rel_ranks, order, selected = _select(simulatability[e], np.abs(relevance), keys, balanced)
    return ScoredFront(sim_ranks, rel_ranks, _front(sim_ranks, rel_ranks), order, selected, e, c, relevance)
