"""Robustness probes.

The perturbation helpers stress the selected explanation from two sides:
a synthetic message with controlled alignment to the predicted class
direction, injected into the target's last-layer aggregation, and a random
last-layer weight shift of controlled Euclidean size. The sweep harness
records how the prediction and the explanation's node set respond.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .explain import CandidateScorer, EnumConfig, enumerate_subgraphs, DEFAULT_EPSILON
from .gcn import Model, forward
from .graph import Ball, Graph, canonical_order
from .pipeline import ball_hops, explain_scored


def jaccard_distance(a, b) -> float:
    """1 - |intersection| / |union|; two empty sets are at distance 0."""
    a, b = set(a), set(b)
    union = a | b
    if not union:
        return 0.0
    return 1.0 - len(a & b) / len(union)


def derive_seed(master: int, *parts) -> int:
    """Stable per-task seed derived from the master seed and integer tags."""
    seq = np.random.SeedSequence([int(master), *[int(p) for p in parts]])
    return int(seq.generate_state(1, np.uint32)[0])


@dataclass(frozen=True, eq=False)
class MessagePerturbation:
    """A synthetic last-layer message and the prediction it produced."""

    target: int
    message: np.ndarray
    target_cos: float
    magnitude: float
    seed: int
    distribution: np.ndarray


def perturb_message(model: Model, ball: Ball, target_cos: float, magnitude: float, seed: int) -> MessagePerturbation:
    """Inject a message with chosen alignment to the predicted class column.

    The message has the requested norm and cosine against theta_y (the
    last-layer column of the unperturbed predicted class); its orthogonal
    component points in a seeded random direction. Both passes read the
    target's ball, of at least the model's depth in hops.
    """
    if not -1.0 <= target_cos <= 1.0:
        raise ValueError("target_cos must lie in [-1, 1]")
    if not 0.0 <= magnitude < np.inf:  # false for nan too
        raise ValueError(f"magnitude must be finite and non-negative, got {magnitude}")
    base = forward(model, ball)
    y = int(np.argmax(base))
    theta_y = model.layers[-1][:, y]
    norm = float(np.linalg.norm(theta_y))
    if not np.isfinite(norm) or norm < 1e-12:
        raise ValueError("degenerate class direction: zero-norm class column")
    unit = theta_y / norm

    ortho_share = float(np.sqrt(max(0.0, 1.0 - target_cos * target_cos)))
    if unit.size == 1:
        if ortho_share > 1e-9:
            raise ValueError("degenerate class direction: no orthogonal direction in one dimension")
        ortho = np.zeros(1)
    else:
        rng = np.random.default_rng(seed)
        ortho = np.zeros(unit.size)
        for _ in range(64):
            draw = rng.standard_normal(unit.size)
            draw = draw - float(draw @ unit) * unit
            n = float(np.linalg.norm(draw))
            if n > 1e-9:
                ortho = draw / n
                break
    message = magnitude * (target_cos * unit + ortho_share * ortho)

    if magnitude == 0.0:
        distribution = base
    else:
        distribution = forward(model, ball, extra_message=message)
    return MessagePerturbation(ball.target, message, float(target_cos), float(magnitude), int(seed), distribution)


def perturb_weights(model: Model, target_distance: float, seed: int) -> Model:
    """Shift the last layer by a seeded random direction of exact length.

    Distance 0 returns the model unchanged. The direction is a unit vector
    in flattened parameter space, so the Euclidean parameter distance of
    the result equals ``target_distance`` up to rounding.
    """
    if not 0.0 <= target_distance < np.inf:  # false for nan too
        raise ValueError(f"target_distance must be finite and non-negative, got {target_distance}")
    if target_distance == 0:
        return model
    last = model.layers[-1]
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(last.shape)
    norm = float(np.linalg.norm(direction))
    while norm < 1e-12:
        direction = rng.standard_normal(last.shape)
        norm = float(np.linalg.norm(direction))
    shifted = last + (target_distance / norm) * direction
    return replace(model, layers=model.layers[:-1] + (shifted,))


@dataclass(frozen=True)
class PerturbRecord:
    """One sweep measurement for one node at one perturbation strength."""

    node: int
    kind: str
    strength: float
    pred_before: int
    pred_after: int
    jaccard: float
    seed: int


def run_sanity_sweep(
    model: Model,
    graph: Graph,
    nodes,
    mode: str,
    steps: int,
    seed: int,
    config: EnumConfig = EnumConfig(),
    magnitude: float = 1.0,
    max_distance: float = 1.0,
    method: str = "pareto-rank",
    epsilon: float = DEFAULT_EPSILON,
) -> list:
    """Grid of perturbations per node, in canonical (node, step) order.

    Message mode sweeps the alignment cosine from 1 to -1 (strength is the
    negated cosine, so it grows with adversariality); weights mode sweeps
    the parameter distance from 0 to ``max_distance``. Endpoints are always
    included and the record count is ``steps * len(nodes)``. Each node's
    ball, candidates and scorer are built once, and each step selects
    again: on the scorer re-read against the perturbed prediction
    (``with_reference``, no restricted pass rerun), or on a scorer of the
    shifted model. Every selection takes the node's seed,
    ``derive_seed(seed, node)``, as ``explain`` does.
    """
    if mode not in ("message", "weights"):
        raise ValueError(f"unknown mode: {mode!r}")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    records = []
    for node in nodes:
        ball = canonical_order(graph, node, ball_hops(model, config, method))
        scorer = CandidateScorer(model, enumerate_subgraphs(ball, config), epsilon)
        node_seed = derive_seed(seed, node)
        baseline = explain_scored(scorer, method, node_seed, exhaustive_cf=False, edge_weights=None)
        base_nodes = baseline.scorer.enumeration.nodes(baseline.explanation)
        for si in range(steps):
            frac = si / (steps - 1)
            rec_seed = derive_seed(seed, node, si)
            if mode == "message":
                cos = 1.0 - 2.0 * frac
                distribution = perturb_message(model, ball, cos, magnitude, rec_seed).distribution
                step_scorer = scorer.with_reference(distribution)
                strength = -cos + 0.0
            else:
                shifted = perturb_weights(model, max_distance * frac, rec_seed)
                # Distance 0 returns the node's own model, whose scorer is built.
                step_scorer = scorer if shifted is model else CandidateScorer(shifted, scorer.enumeration, epsilon)
                distribution = step_scorer.full_distribution
                strength = max_distance * frac
            after = explain_scored(step_scorer, method, node_seed, exhaustive_cf=False, edge_weights=None)
            records.append(
                PerturbRecord(
                    node=int(node),
                    kind=mode,
                    strength=float(strength),
                    pred_before=baseline.predicted_class,
                    pred_after=int(np.argmax(distribution)),
                    jaccard=jaccard_distance(base_nodes, after.scorer.enumeration.nodes(after.explanation)),
                    seed=rec_seed,
                )
            )
    return records
