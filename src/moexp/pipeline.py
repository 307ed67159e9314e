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
    counterfactual_pairs,
    enumerate_subgraphs,
    generate_pairs,
    DEFAULT_EPSILON,
)
from .gcn import Model
from .graph import Ball, Graph, Subgraph, target_ball
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
    """Everything the pipeline decided about one target node.

    ``front.e``, ``front.c`` index the candidates of ``scorer.enumeration``,
    whose scores are in ``scorer.distributions`` and ``scorer.simulatability``.
    ``ball`` is the target's ball that every stage read.
    """

    target: int
    method: str
    full_distribution: np.ndarray
    predicted_class: int
    candidate_count: int
    pair_count: int
    front: ScoredFront | None
    scorer: CandidateScorer
    ball: Ball
    explanation: Subgraph
    explanation_distribution: np.ndarray
    explanation_simulatability: float
    distinct_evaluations: int
    memo_hits: int


def ball_hops(model: Model, config: EnumConfig, method: str) -> int:
    """Hops of the ball that ``explain_node`` reads: the search diameter and
    the model depth, and for external weights the ``max_nodes - 1`` hops a
    grown tree can reach, since those weights need not stay near the target."""
    hops = max(config.diameter, model.depth)
    return max(hops, config.max_nodes - 1) if method == "external-weights" else hops


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
    ball: Ball | None = None,
) -> NodeExplanation:
    """Run one method on one target and return its selection.

    ``reference_distribution`` substitutes the full-graph distribution that
    candidates are compared against (perturbation studies use this).
    ``edge_weights`` supplies the weights for method ``external-weights``.
    Every stage reads only the target's ball (``ball``, of at least
    ``ball_hops`` hops, or a new one), so the cost does not grow with the
    graph. ``enumeration`` and ``ball`` let a caller that explains one
    target several times build them once.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    ball = target_ball(graph, target, ball_hops(model, config, method), ball)
    if enumeration is None:
        enumeration = enumerate_subgraphs(graph, target, config, ball)
    elif enumeration.target != target:
        raise ValueError("enumeration anchored at a different target")
    scorer = CandidateScorer(
        model, graph, enumeration, epsilon, reference_distribution=reference_distribution, ball=ball
    )

    if method in ("pareto-rank", "balanced"):
        pairs = generate_pairs(enumeration, exhaustive=exhaustive_cf)
        strategy = "comprehensive" if method == "pareto-rank" else "balanced"
        return _finish(scorer, ball, method, pairs, strategy, 0)

    if method == "shapley":
        picked = baselines.shapley_selection(model, graph, target, config, epsilon, scorer=scorer)
        pairs = np.array([] if picked is None else [picked], dtype=np.intp).reshape(-1, 2)
        return _finish(scorer, ball, method, pairs, "comprehensive", 0)

    if method == "random":
        weights = baselines.random_weights(graph, target, config, seed, ball)
    elif method == "grad-fd":
        # The scorer's pass is the model's own unless a reference overrides it.
        reference = scorer.full_distribution if reference_distribution is None else None
        weights = baselines.grad_weights_fd(model, graph, target, fd_step, config.diameter, ball, reference)
    elif method == "grad-analytic":
        weights = baselines.grad_weights_analytic(model, graph, target, config.diameter, ball)
    else:
        if edge_weights is None:
            raise ValueError("method external-weights requires edge weights")
        weights = {int(k): float(v) for k, v in edge_weights.items()}
    tree = baselines.grow_table(weights, graph, target, config.max_nodes, ball)
    last = len(tree) - 1
    i = int(enumeration.positions(tree.edge_ids[last:])[0])
    if i >= 0:
        pairs = counterfactual_pairs(enumeration, np.array([i]), exhaustive_cf)
        return _finish(scorer, ball, method, pairs, "comprehensive", i)
    # The tree left the search (external weights need not stay near the
    # target): score it from its growth table, against the same reference.
    grown = CandidateScorer(model, graph, tree, epsilon, reference_distribution=scorer.full_distribution)
    return _finish(scorer, ball, method, np.zeros((0, 2), dtype=np.intp), "comprehensive", last, grown)


def _finish(scorer, ball, method, pairs, strategy, i: int, source: CandidateScorer | None = None):
    """Rank the pairs; with none, explain by candidate ``i`` of ``source``,
    the scorer of a grown tree's own table, or of ``scorer`` by default."""
    source = scorer if source is None else source
    front = None
    if len(pairs):
        relevance = scorer.pair(pairs[:, 0], pairs[:, 1])
        front = rank_pairs(scorer.enumeration, scorer.simulatability, pairs, relevance, strategy)
        i = int(front.e[front.selected])
    else:
        source.candidate(i)
    scorers = {scorer, source}
    return NodeExplanation(
        target=scorer.target,
        method=method,
        full_distribution=scorer.full_distribution,
        predicted_class=int(np.argmax(scorer.full_distribution)),
        candidate_count=len(scorer.enumeration),
        pair_count=len(pairs),
        front=front,
        scorer=scorer,
        ball=ball,
        explanation=source.enumeration.subgraph(i),
        explanation_distribution=source.distributions[i],
        explanation_simulatability=float(source.simulatability[i]),
        distinct_evaluations=sum(s.forward_count for s in scorers),
        memo_hits=sum(s.hit_count for s in scorers),
    )
