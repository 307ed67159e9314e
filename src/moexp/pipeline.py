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
from .graph import Graph, canonical_order
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

    ``explanation``, ``front.e`` and ``front.c`` index the candidates of
    ``scorer.enumeration``, whose scores are in ``scorer.distributions`` and
    ``scorer.simulatability``: the search's table, or the growth table of a
    grown tree that left the search (``front`` is then None).
    ``candidate_count`` counts the search's candidates, and
    ``distinct_evaluations`` and ``memo_hits`` are the scorer's counts.
    Every stage read the target's ball, ``scorer.enumeration.ball``.
    """

    target: int
    method: str
    full_distribution: np.ndarray
    predicted_class: int
    candidate_count: int
    pair_count: int
    front: ScoredFront | None
    scorer: CandidateScorer
    explanation: int
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
    reference_distribution=None,
    enumeration: Enumeration | None = None,
) -> NodeExplanation:
    """Run one method on one target and return its selection.

    ``reference_distribution`` substitutes the full-graph distribution that
    candidates are compared against (perturbation studies use this).
    ``edge_weights`` supplies the weights for method ``external-weights``.
    Every stage reads only the target's ball, of ``ball_hops`` hops, so the
    cost does not grow with the graph. ``enumeration`` lets a caller that
    explains one target several times enumerate once: it must have been
    built under ``config``, and its ball, the one every stage reads, must
    be the target's in ``graph``, of at least ``ball_hops`` hops.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    hops = ball_hops(model, config, method)
    if enumeration is None:
        ball = canonical_order(graph, target, hops)
        enumeration = enumerate_subgraphs(ball, config)
    else:
        ball = enumeration.ball
        if ball.target != target:
            raise ValueError("enumeration anchored at a different target")
        if enumeration.config != config:
            raise ValueError(f"enumeration built under {enumeration.config} cannot serve {config}")
        if ball.graph is not graph or ball.hops < hops:
            raise ValueError(f"ball of node {target} with {ball.hops} hops cannot serve node {target} at {hops} hops")
    scorer = CandidateScorer(model, enumeration, epsilon, reference_distribution)
    pairs, i = np.zeros((0, 2), dtype=np.intp), 0

    if method in ("pareto-rank", "balanced"):
        pairs = generate_pairs(enumeration, exhaustive=exhaustive_cf)
    elif method == "shapley":
        # Imported here and below: the pareto-rank and balanced methods do not read it.
        from .baselines import shapley_selection

        picked = shapley_selection(scorer)
        pairs = np.array([] if picked is None else [picked], dtype=np.intp).reshape(-1, 2)
    else:
        from . import baselines

        if method == "random":
            weights = baselines.random_weights(ball, config.diameter, seed)
        elif method == "grad-fd":
            # The scorer's pass is the model's own unless a reference overrides it.
            reference = scorer.full_distribution if reference_distribution is None else None
            weights = baselines.grad_weights_fd(model, ball, DEFAULT_FD_STEP, config.diameter, reference)
        elif method == "grad-analytic":
            weights = baselines.grad_weights_analytic(model, ball, config.diameter)
        elif edge_weights is None:
            raise ValueError("method external-weights requires edge weights")
        else:
            weights = {int(k): float(v) for k, v in edge_weights.items()}
        tree = baselines.grow_table(weights, ball, config.max_nodes)
        i = int(enumeration.positions(tree.edge_ids[-1:])[0])
        if i >= 0:
            pairs = counterfactual_pairs(enumeration, np.array([i]), exhaustive_cf)
        else:
            # The tree left the search (external weights need not stay near
            # the target): its own scorer scores it from its growth table,
            # against the same reference, and becomes the node's scorer.
            scorer, i = CandidateScorer(model, tree, epsilon, scorer.full_distribution), len(tree) - 1

    front = None
    if len(pairs):
        relevance = scorer.pair(pairs[:, 0], pairs[:, 1])
        strategy = "balanced" if method == "balanced" else "comprehensive"
        front = rank_pairs(enumeration, scorer.simulatability, pairs, relevance, strategy)
        i = int(front.e[front.selected])
    else:
        scorer.candidate(i)
    return NodeExplanation(
        target=target,
        method=method,
        full_distribution=scorer.full_distribution,
        predicted_class=int(np.argmax(scorer.full_distribution)),
        candidate_count=len(enumeration),
        pair_count=len(pairs),
        front=front,
        scorer=scorer,
        explanation=i,
        distinct_evaluations=scorer.forward_count,
        memo_hits=scorer.hit_count,
    )
