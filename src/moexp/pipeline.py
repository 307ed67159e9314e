"""End-to-end explanation of a single node prediction.

Every method funnels through the same enumeration, scoring, and ranking
machinery. Multi-objective methods rank all generated pairs; weight-based
baselines first grow one explanation tree from their edge weights and then
rank only the pairs anchored at that tree; the Shapley baseline picks its
pair directly from the attribution scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import baselines
from .explain import (
    CandidateScorer,
    EnumConfig,
    Enumeration,
    SubgraphCandidate,
    enumerate_subgraphs,
    generate_pairs,
    DEFAULT_EPSILON,
)
from .gcn import Model
from .graph import Graph, Subgraph, make_subgraph
from .pareto import ScoredFront, rank_pairs

METHODS = (
    "pareto-rank",
    "balanced",
    "random",
    "shapley",
    "grad-fd",
    "grad-analytic",
    "external-weights",
)

DEFAULT_FD_STEP = 1e-4


@dataclass(frozen=True, eq=False)
class NodeExplanation:
    """Everything the pipeline decided about one target node."""

    target: int
    method: str
    full_distribution: np.ndarray
    predicted_class: int
    candidate_count: int
    pair_count: int
    front: ScoredFront | None
    explanation_candidate: SubgraphCandidate
    distinct_evaluations: int
    memo_hits: int

    @property
    def explanation(self) -> Subgraph:
        return self.explanation_candidate.subgraph

    @property
    def selected_pair(self):
        return None if self.front is None else self.front.selected_pair


def explain_node(
    model: Model,
    graph: Graph,
    target: int,
    config: EnumConfig = EnumConfig(),
    method: str = "pareto-rank",
    seed: int = 42,
    exhaustive_cf: bool = False,
    epsilon: float = DEFAULT_EPSILON,
    edge_weights: dict | None = None,
    fd_step: float = DEFAULT_FD_STEP,
    reference_distribution=None,
    enumeration: Enumeration | None = None,
) -> NodeExplanation:
    """Run one method on one target and return its selection.

    ``reference_distribution`` substitutes the full-graph distribution that
    candidates are compared against (perturbation studies use this).
    ``edge_weights`` supplies the weights for method ``external-weights``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    if enumeration is None:
        enumeration = enumerate_subgraphs(graph, target, config)
    scorer = CandidateScorer(
        model, graph, target, epsilon, reference_distribution=reference_distribution
    )

    if method in ("pareto-rank", "balanced"):
        skeletons = generate_pairs(enumeration, exhaustive=exhaustive_cf)
        strategy = "comprehensive" if method == "pareto-rank" else "balanced"
        return _finish(scorer, enumeration, method, skeletons, strategy)

    if method == "shapley":
        picked = baselines.shapley_selection(
            model, graph, target, config, epsilon, scorer=scorer, enumeration=enumeration
        )
        skeletons = [picked] if picked is not None else []
        return _finish(scorer, enumeration, method, skeletons, "comprehensive")

    if method == "random":
        weights = baselines.random_weights(graph, target, config, seed)
    elif method == "grad-fd":
        weights = baselines.grad_weights_fd(model, graph, target, fd_step, config.diameter)
    elif method == "grad-analytic":
        weights = baselines.grad_weights_analytic(model, graph, target, config.diameter)
    else:
        if edge_weights is None:
            raise ValueError("method external-weights requires edge weights")
        weights = {int(k): float(v) for k, v in edge_weights.items()}
    grown = baselines.grow_subgraph(weights, graph, target, config.max_nodes)
    i = enumeration.index.get(grown.edge_set)
    subs = enumeration.subgraphs
    skeletons = [] if i is None else [(subs[i], subs[j]) for j in enumeration.counterfactuals(i, exhaustive_cf)]
    return _finish(scorer, enumeration, method, skeletons, "comprehensive", fallback=grown)


def _finish(scorer, enumeration, method, skeletons, strategy, fallback: Subgraph | None = None):
    pairs = [scorer.pair(e, c) for e, c in skeletons]
    front = rank_pairs(pairs, strategy) if pairs else None
    if front is not None:
        candidate = front.selected_pair.explanation
    elif fallback is not None:
        candidate = scorer.candidate(fallback)
    else:
        candidate = scorer.candidate(make_subgraph(scorer.graph, scorer.target, ()))
    return NodeExplanation(
        target=scorer.target,
        method=method,
        full_distribution=scorer.full_distribution,
        predicted_class=int(np.argmax(scorer.full_distribution)),
        candidate_count=len(enumeration),
        pair_count=len(pairs),
        front=front,
        explanation_candidate=candidate,
        distinct_evaluations=scorer.forward_count,
        memo_hits=scorer.hit_count,
    )
