"""Confounder identification and robustness probes.

The perturbation helpers stress the selected explanation from two sides:
a synthetic message with controlled alignment to the predicted class
direction, injected into the target's last-layer aggregation, and a random
last-layer weight shift of controlled Euclidean size. The sweep harness
records how the prediction and the explanation's node set respond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .explain import EnumConfig, DEFAULT_EPSILON
from .gcn import Model, forward
from .graph import Graph, l_hop_neighborhood
from .pipeline import NodeExplanation, explain_node


def confounder_set(graph: Graph, target: int, hops: int, pair) -> set:
    """Nodes that can open back-door paths for the pair's node difference.

    These are the nodes inside the target's ``hops``-ball that are not part
    of the removed set: they keep influencing the prediction in both the
    explanation and the counterfactual regime.
    """
    return l_hop_neighborhood(graph, target, hops) - set(pair.removed_nodes)


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
    explanation: NodeExplanation | None


def perturb_message(
    model: Model,
    graph: Graph,
    target: int,
    target_cos: float,
    magnitude: float,
    seed: int,
    config: EnumConfig | None = None,
    method: str = "pareto-rank",
    epsilon: float = DEFAULT_EPSILON,
) -> MessagePerturbation:
    """Inject a message with chosen alignment to the predicted class column.

    The message has the requested norm and cosine against theta_y (the
    last-layer column of the unperturbed predicted class); its orthogonal
    component points in a seeded random direction. When ``config`` is given
    the explanation is recomputed against the perturbed prediction.
    """
    if not -1.0 <= target_cos <= 1.0:
        raise ValueError("target_cos must lie in [-1, 1]")
    if magnitude < 0:
        raise ValueError("magnitude must be non-negative")
    base = forward(model, graph, target)
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
        distribution = forward(model, graph, target, extra_message=message)
    explanation = None
    if config is not None:
        explanation = explain_node(
            model, graph, target, config,
            method=method, epsilon=epsilon, reference_distribution=distribution,
        )
    return MessagePerturbation(target, message, float(target_cos), float(magnitude), int(seed), distribution, explanation)


def perturb_weights(model: Model, target_distance: float, seed: int) -> Model:
    """Shift the last layer by a seeded random direction of exact length.

    Distance 0 returns the model unchanged. The direction is a unit vector
    in flattened parameter space, so the Euclidean parameter distance of
    the result equals ``target_distance`` up to rounding.
    """
    if target_distance < 0:
        raise ValueError("target_distance must be non-negative")
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
    return Model(
        layers=model.layers[:-1] + (shifted,),
        activation=model.activation,
        self_loop=model.self_loop,
        mean_aggregate=model.mean_aggregate,
        final_activation=model.final_activation,
    )


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
    included and the record count is ``steps * len(nodes)``.
    """
    if mode not in ("message", "weights"):
        raise ValueError(f"unknown mode: {mode!r}")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    records = []
    for node in nodes:
        baseline = explain_node(model, graph, node, config, method=method, epsilon=epsilon)
        base_nodes = set(baseline.explanation.node_set)
        for si in range(steps):
            frac = si / (steps - 1)
            rec_seed = derive_seed(seed, node, si)
            if mode == "message":
                cos = 1.0 - 2.0 * frac
                probe = perturb_message(
                    model, graph, node, cos, magnitude, rec_seed, config, method, epsilon
                )
                after = probe.explanation
                distribution = probe.distribution
                strength = -cos + 0.0
            else:
                shifted = perturb_weights(model, max_distance * frac, rec_seed)
                after = explain_node(shifted, graph, node, config, method=method, epsilon=epsilon)
                distribution = after.full_distribution
                strength = max_distance * frac
            records.append(
                PerturbRecord(
                    node=int(node),
                    kind=mode,
                    strength=float(strength),
                    pred_before=baseline.predicted_class,
                    pred_after=int(np.argmax(distribution)),
                    jaccard=jaccard_distance(base_nodes, set(after.explanation.node_set)),
                    seed=rec_seed,
                )
            )
    return records
