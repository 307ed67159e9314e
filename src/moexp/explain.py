"""Candidate enumeration and the two explanation objectives.

A candidate explanation is a connected acyclic edge-induced subgraph (a
tree) containing the target node. Candidates are produced by a DFS that
grows one edge at a time inside the target's D-hop ball, using a forbidden
set so every tree is emitted exactly once, in an order fixed by canonical
edge ranks. Each candidate remembers the candidate it was grown from, and
counterfactuals are drawn from those growth ancestors (or, exhaustively,
from every enumerated sub-tree).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .gcn import Model, forward
from .graph import Graph, Subgraph, bfs_distances, canonical_order, make_subgraph

DEFAULT_EPSILON = 1e-9


@dataclass(frozen=True)
class EnumConfig:
    """Search bounds: at most ``max_nodes`` per candidate, all nodes within
    ``diameter`` hops of the target."""

    max_nodes: int = 4
    diameter: int = 2

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")
        if self.diameter < 1:
            raise ValueError("diameter must be at least 1")


@dataclass(frozen=True)
class Enumeration:
    """All candidates for one target, with growth parent links.

    ``parents[i]`` is the index of the candidate that candidate i was
    expanded from by a single edge (None for the single-node root).
    """

    target: int
    subgraphs: tuple
    parents: tuple

    def __len__(self) -> int:
        return len(self.subgraphs)

    @functools.cached_property
    def index(self) -> dict:
        """Position of each candidate, keyed by its edge set."""
        return {s.edge_set: i for i, s in enumerate(self.subgraphs)}

    def counterfactuals(self, i: int, exhaustive: bool) -> list:
        """Indices of candidate i's counterfactuals, in pairing order.

        Default mode gives the proper growth ancestors, nearest first.
        Exhaustive mode gives every enumerated proper sub-tree, in
        ``itertools.combinations`` order of its edge set. Both drop the bare
        target for explanations of three or more nodes; it is only allowed
        for two-node explanations, where no other counterfactual exists.
        """
        sub = self.subgraphs[i]
        if exhaustive:
            combos = (c for r in range(len(sub.edge_set)) for c in itertools.combinations(sub.edge_set, r))
            out = [j for j in map(self.index.get, combos) if j is not None]
        else:
            out = []
            j = self.parents[i]
            while j is not None:
                out.append(j)
                j = self.parents[j]
        if len(sub.node_set) >= 3:
            out = [j for j in out if self.subgraphs[j].edge_set]
        return out


def enumerate_subgraphs(graph: Graph, target: int, config: EnumConfig = EnumConfig()) -> Enumeration:
    """Every tree containing the target within the config bounds, exactly once.

    Extension edges at each step are tried in canonical rank order; after a
    branch returns, its edge is forbidden for the remaining siblings, which
    is what guarantees uniqueness. An isolated target yields just the
    single-node candidate.
    """
    order = canonical_order(graph, target)
    dist = bfs_distances(graph, target)
    erank = order.edge_rank
    subgraphs: list[Subgraph] = []
    parents: list = []

    def expand(edge_ids: tuple, nodes: frozenset, parent, forbidden: frozenset):
        index = len(subgraphs)
        subgraphs.append(make_subgraph(graph, target, edge_ids))
        parents.append(parent)
        if len(nodes) >= config.max_nodes:
            return
        in_tree = set(edge_ids)
        extensions = []
        for node in nodes:
            for nbr, eid in graph.incidence[node]:
                if eid in in_tree or eid in forbidden or nbr in nodes:
                    continue
                d = dist[nbr]
                if d is None or d > config.diameter:
                    continue
                extensions.append((erank[eid], eid, nbr))
        extensions.sort()
        blocked = set(forbidden)
        for _, eid, nbr in extensions:
            expand(edge_ids + (eid,), nodes | {nbr}, index, frozenset(blocked))
            blocked.add(eid)

    expand((), frozenset({target}), None, frozenset())
    return Enumeration(target, tuple(subgraphs), tuple(parents))


def generate_pairs(enumeration: Enumeration, exhaustive: bool = False):
    """(explanation, counterfactual) skeletons prior to scoring, one
    explanation after another in enumeration order (see
    ``Enumeration.counterfactuals``)."""
    subs = enumeration.subgraphs
    return [(subs[i], subs[j]) for i in range(len(subs)) for j in enumeration.counterfactuals(i, exhaustive)]


def simulatability(reference, candidate, epsilon: float = DEFAULT_EPSILON) -> float:
    """Negative symmetric KL divergence between two class distributions.

    Both distributions are smoothed toward uniform by ``epsilon`` before the
    divergence, so the value is finite even for saturated inputs. Always
    <= 0, and 0 exactly when the smoothed distributions coincide. The
    summation is arranged so swapping the arguments is a bitwise no-op.
    """
    p = np.asarray(reference, dtype=float).reshape(-1)
    q = np.asarray(candidate, dtype=float).reshape(-1)
    if p.size != q.size:
        raise ValueError(f"distribution length mismatch: {p.size} != {q.size}")
    if epsilon:
        k = p.size
        p = (1.0 - epsilon) * p + epsilon / k
        q = (1.0 - epsilon) * q + epsilon / k
    total = float(((p - q) * (np.log(p) - np.log(q))).sum())
    return -total + 0.0


def cf_relevance(sim_explanation: float, sim_counterfactual: float, removed_count: int) -> float:
    """Simulatability drop per removed node."""
    if removed_count < 1:
        raise ValueError("removed_count must be at least 1")
    return (sim_explanation - sim_counterfactual) / removed_count


@dataclass(frozen=True, eq=False)
class SubgraphCandidate:
    """A candidate with its restricted class distribution and objective."""

    subgraph: Subgraph
    distribution: np.ndarray
    simulatability: float


@dataclass(frozen=True, eq=False)
class ExplanationPair:
    """Scored explanation/counterfactual pair.

    ``removed_nodes`` is the node difference; ``relevance`` is the
    simulatability drop per removed node and ``abs_relevance`` its
    magnitude, the quantity actually maximized.
    """

    explanation: SubgraphCandidate
    counterfactual: SubgraphCandidate
    removed_nodes: tuple
    removed_count: int
    relevance: float
    abs_relevance: float


class CandidateScorer:
    """Memoized evaluation of candidates against the full-graph prediction.

    One forward pass per distinct edge set; ``forward_count`` counts actual
    restricted passes and ``hit_count`` the memo hits, so tests can verify
    sharing. ``reference_distribution`` overrides the distribution that
    candidates are compared against (used by perturbation studies).
    """

    def __init__(
        self,
        model: Model,
        graph: Graph,
        target: int,
        epsilon: float = DEFAULT_EPSILON,
        reference_distribution=None,
    ):
        self.model = model
        self.graph = graph
        self.target = target
        self.epsilon = epsilon
        if reference_distribution is None:
            self.full_distribution = forward(model, graph, target)
        else:
            self.full_distribution = np.asarray(reference_distribution, dtype=float)
        self.forward_count = 0
        self.hit_count = 0
        self._cache: dict = {}

    def candidate(self, sub: Subgraph) -> SubgraphCandidate:
        if sub.target != self.target:
            raise ValueError("candidate anchored at a different target")
        key = sub.edge_set
        if key in self._cache:
            self.hit_count += 1
            return self._cache[key]
        dist = forward(self.model, self.graph, self.target, restrict=sub)
        self.forward_count += 1
        cand = SubgraphCandidate(sub, dist, simulatability(self.full_distribution, dist, self.epsilon))
        self._cache[key] = cand
        return cand

    def pair(self, explanation: Subgraph, counterfactual: Subgraph) -> ExplanationPair:
        if not set(counterfactual.edge_set) < set(explanation.edge_set):
            raise ValueError("counterfactual must be a proper sub-tree of the explanation")
        removed = tuple(sorted(set(explanation.node_set) - set(counterfactual.node_set)))
        if not removed:
            raise ValueError("counterfactual removes no nodes")
        expl = self.candidate(explanation)
        cf = self.candidate(counterfactual)
        rel = cf_relevance(expl.simulatability, cf.simulatability, len(removed))
        return ExplanationPair(expl, cf, removed, len(removed), rel, abs(rel))


def evaluate_pairs(model: Model, graph: Graph, pairs, epsilon: float = DEFAULT_EPSILON, scorer: CandidateScorer | None = None):
    """Score pair skeletons, sharing candidate evaluations through a memo."""
    pairs = list(pairs)
    if not pairs:
        return []
    if scorer is None:
        scorer = CandidateScorer(model, graph, pairs[0][0].target, epsilon)
    return [scorer.pair(e, c) for e, c in pairs]
