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
    counterfactual_pairs,
    enumerate_subgraphs,
    generate_pairs,
    DEFAULT_EPSILON,
)
from .gcn import Model
from .graph import Graph, canonical_order, require_hops
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
    """Hops of the ball that ``explain_scored`` reads: the search diameter
    and the model depth, and for external weights the ``max_nodes - 1`` hops
    a grown tree can reach, since those weights need not stay near the target."""
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
) -> NodeExplanation:
    """Run one method on one target and return its selection.

    Builds the target's ball of ``ball_hops`` hops, its candidates and
    their scorer, and hands the scorer to ``explain_scored``. Every stage
    reads only that ball, so the cost does not grow with the graph.
    ``edge_weights`` supplies the weights for method ``external-weights``.
    """
    ball = canonical_order(graph, target, ball_hops(model, config, method))
    scorer = CandidateScorer(model, enumerate_subgraphs(ball, config), epsilon)
    return explain_scored(scorer, method, seed, exhaustive_cf, edge_weights)


def explain_scored(
    scorer: CandidateScorer, method: str, seed: int, exhaustive_cf: bool, edge_weights: dict | None
) -> NodeExplanation:
    """Run one method on the candidates of ``scorer`` and return its selection.

    The model, the ball, the search bounds and epsilon are the scorer's,
    and candidates are compared against its ``full_distribution``. A caller
    that explains one target several times builds one scorer and passes it,
    or a ``with_reference`` copy of it, to each run; the ball must reach
    the method's ``ball_hops``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    model, enumeration = scorer.model, scorer.enumeration
    ball, config = enumeration.ball, enumeration.config
    require_hops(ball, ball_hops(model, config, method))
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
            weights = baselines.grad_weights_fd(model, ball, DEFAULT_FD_STEP, config.diameter, scorer.model_distribution)
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
            scorer, i = CandidateScorer(model, tree, scorer.epsilon, scorer.full_distribution), len(tree) - 1

    front = None
    if len(pairs):
        relevance = scorer.pair(pairs[:, 0], pairs[:, 1])
        strategy = "balanced" if method == "balanced" else "comprehensive"
        front = rank_pairs(enumeration, scorer.simulatability, pairs, relevance, strategy)
        i = int(front.e[front.selected])
    else:
        scorer.candidate(i)
    return NodeExplanation(
        target=ball.target,
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
