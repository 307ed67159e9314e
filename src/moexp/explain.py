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
from .graph import Ball, Graph, Subgraph, make_subgraph, target_ball

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

    @functools.cached_property
    def sizes(self) -> np.ndarray:
        """Node count of each candidate."""
        return np.array([len(s.node_set) for s in self.subgraphs])

    @functools.cached_property
    def edge_set_rank(self) -> np.ndarray:
        """Position of each candidate when the edge sets are sorted."""
        return np.argsort(sorted(range(len(self.subgraphs)), key=lambda i: self.subgraphs[i].edge_set))

    def removed_nodes(self, i: int, j: int) -> list:
        """Nodes of candidate i that candidate j lacks, ascending."""
        kept = set(self.subgraphs[j].node_set)
        return [v for v in self.subgraphs[i].node_set if v not in kept]

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


def enumerate_subgraphs(
    graph: Graph, target: int, config: EnumConfig = EnumConfig(), ball: Ball | None = None
) -> Enumeration:
    """Every tree containing the target within the config bounds, exactly once.

    Extension edges at each step are tried in canonical rank order; after a
    branch returns, its edge is forbidden for the remaining siblings, which
    is what guarantees uniqueness. An isolated target yields just the
    single-node candidate. The search reads only the target's ball
    (``ball``, of at least ``config.diameter`` hops, or a new one).
    """
    ball = target_ball(graph, target, config.diameter, ball)
    dist, erank, incidence = ball.distance, ball.edge_rank, ball.incidence
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
            for nbr, eid in incidence[node]:
                if eid in in_tree or eid in forbidden or nbr in nodes or dist[nbr] > config.diameter:
                    continue
                extensions.append((erank[eid], eid, nbr))
        extensions.sort()
        blocked = set(forbidden)
        for _, eid, nbr in extensions:
            expand(edge_ids + (eid,), nodes | {nbr}, index, frozenset(blocked))
            blocked.add(eid)

    expand((), frozenset({0}), None, frozenset())
    return Enumeration(target, tuple(subgraphs), tuple(parents))


def generate_pairs(enumeration: Enumeration, exhaustive: bool = False) -> np.ndarray:
    """(explanation, counterfactual) positions as an (m, 2) int array, one
    explanation after another in enumeration order (see
    ``Enumeration.counterfactuals``)."""
    pairs = [(i, j) for i in range(len(enumeration)) for j in enumeration.counterfactuals(i, exhaustive)]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


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


class CandidateScorer:
    """Scores of one enumeration's candidates against the full-graph prediction.

    The full-graph prediction is one pass on the target's ball (``ball``, or
    a new one of the model's depth in hops).

    Candidate i's restricted pass runs on its first request; its distribution
    and simulatability then stay in ``distributions[i]`` and
    ``simulatability[i]``. ``forward_count`` counts restricted passes and
    ``hit_count`` the requests answered without one, so tests can verify
    sharing. ``reference_distribution`` overrides the distribution that
    candidates are compared against (used by perturbation studies).
    """

    def __init__(
        self,
        model: Model,
        graph: Graph,
        enumeration: Enumeration,
        epsilon: float = DEFAULT_EPSILON,
        reference_distribution=None,
        ball: Ball | None = None,
    ):
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1): {epsilon}")
        self.model = model
        self.graph = graph
        self.enumeration = enumeration
        self.target = enumeration.target
        self.epsilon = epsilon
        if reference_distribution is None:
            self.full_distribution = forward(model, graph, self.target, ball=ball)
        else:
            self.full_distribution = np.asarray(reference_distribution, dtype=float)
        self.distributions = np.zeros((len(enumeration), model.class_count))
        self.simulatability = np.zeros(len(enumeration))
        self._scored = np.zeros(len(enumeration), dtype=bool)
        self.forward_count = 0
        self.hit_count = 0

    def score(self, sub: Subgraph):
        """(distribution, simulatability) of one tree, by one restricted pass."""
        dist = forward(self.model, self.graph, self.target, restrict=sub)
        self.forward_count += 1
        return dist, simulatability(self.full_distribution, dist, self.epsilon)

    def candidate(self, i: int) -> float:
        """Simulatability of candidate i."""
        if self._scored[i]:
            self.hit_count += 1
        else:
            self.distributions[i], self.simulatability[i] = self.score(self.enumeration.subgraphs[i])
            self._scored[i] = True
        return float(self.simulatability[i])

    def pair(self, e: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Counterfactual relevance of each pair (e[k], c[k]) of candidate
        positions: the simulatability drop per removed node.

        Each pair requests both of its candidates, so the counts are those of
        scoring the pairs one after another.
        """
        requested = np.concatenate([e, c])
        fresh = np.unique(requested[~self._scored[requested]])
        for i in fresh:
            self.candidate(i)
        self.hit_count += requested.size - fresh.size
        sizes = self.enumeration.sizes
        return (self.simulatability[e] - self.simulatability[c]) / (sizes[e] - sizes[c])
