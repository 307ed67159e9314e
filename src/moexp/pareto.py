"""Pareto fronts and rank-based selection over scored pairs.

Scores are (simulatability, absolute relevance) and both coordinates are
maximized. Ranks use competition ranking (ties share the smallest position,
the next distinct value resumes after the tie block), and the selection
minimizes the rank sum, which provably lands on the Pareto front.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def _reject_nan(values: np.ndarray) -> None:
    # NaN compares unequal to itself, so no tie scan below could group it.
    bad = np.flatnonzero(values != values)
    if bad.size:
        raise ValueError(f"non-finite score at index {bad[0]}: {values[bad[0]]}")


def _front(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Flag the non-dominated entries via a single descending sweep.

    Sorting by the first coordinate groups exact ties; inside a group only
    entries matching the group's best second coordinate survive, and only
    if no strictly-better first coordinate already reached that second
    coordinate. Equivalent to the quadratic all-pairs check.
    """
    n = first.size
    _reject_nan(first)
    _reject_nan(second)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-second, -first))
    a, b = first[order], second[order]
    starts = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
    group = np.repeat(starts, np.diff(np.r_[starts, n]))
    best_before = np.r_[-np.inf, np.maximum.accumulate(b)[:-1]]
    flags = np.empty(n, dtype=bool)
    flags[order] = (b == b[group]) & (b[group] > best_before[group])
    return flags


def _ranks(values: np.ndarray) -> np.ndarray:
    """1-based descending ranks; tied values share 1 + (count strictly better)."""
    _reject_nan(values)
    return np.searchsorted(np.sort(-values), -values, side="left") + 1


@dataclass(frozen=True, eq=False)
class ScoredFront:
    """Per-pair ranks, the listing order, and the index the strategy picked.

    ``sim_ranks``, ``rel_ranks``, ``rank_sums`` and ``pareto`` hold one
    value per pair; ``order`` lists every index by (rank sum, tie key,
    index). A front from ``rank_pairs`` also holds each pair's explanation
    position ``e``, counterfactual position ``c`` and ``relevance``.
    """

    sim_ranks: np.ndarray
    rel_ranks: np.ndarray
    rank_sums: np.ndarray
    pareto: np.ndarray
    order: np.ndarray
    selected: int
    e: np.ndarray | None = None
    c: np.ndarray | None = None
    relevance: np.ndarray | None = None

    @property
    def front_size(self) -> int:
        return int(np.count_nonzero(self.pareto))


def _select(first: np.ndarray, second: np.ndarray, tie_keys, balanced: bool) -> ScoredFront:
    """Rank both objectives; ``tie_keys`` are integer arrays, most significant first."""
    if first.size == 0:
        raise ValueError("at least one scored pair required")
    sim_ranks = _ranks(first)
    rel_ranks = _ranks(second)
    sums = sim_ranks + rel_ranks
    order = np.lexsort((*tie_keys[::-1], sums))
    selected = order[0]
    if balanced:
        gaps = np.abs(sim_ranks - rel_ranks)
        selected = order[np.argmax(gaps[order] == gaps.min())]
    return ScoredFront(sim_ranks, rel_ranks, sums, _front(first, second), order, int(selected))


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
    front = _select(simulatability[e], np.abs(relevance), keys, strategy == "balanced")
    return replace(front, e=e, c=c, relevance=relevance)
