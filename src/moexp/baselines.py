"""Edge-weight baselines and Shapley attribution over enumerated candidates.

All weight-based baselines emit a weight per edge inside the target's
D-hop ball and share the same greedy growth into an explanation tree, so
every method is scored by the same downstream machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gcn import Model, forward, masked_loss, node_embeddings
from .graph import Graph, Subgraph, bfs_distances, canonical_order, make_subgraph
from .explain import CandidateScorer, EnumConfig, Enumeration, cf_relevance, enumerate_subgraphs, DEFAULT_EPSILON


def neighborhood_edge_ids(graph: Graph, target: int, diameter: int) -> list:
    """Ids of edges whose endpoints both lie within ``diameter`` hops of target."""
    dist = bfs_distances(graph, target)

    def inside(v):
        return dist[v] is not None and dist[v] <= diameter

    return [eid for eid, (u, w) in enumerate(graph.edges) if inside(u) and inside(w)]


def random_weights(graph: Graph, target: int, config: EnumConfig, seed: int) -> dict:
    """Uniform [0, 1) weight per neighborhood edge from a PCG64 stream."""
    rng = np.random.default_rng(seed)
    eids = neighborhood_edge_ids(graph, target, config.diameter)
    values = rng.random(len(eids))
    return {eid: float(v) for eid, v in zip(eids, values)}


def grow_subgraph(weights, graph: Graph, target: int, max_nodes: int) -> Subgraph:
    """Greedy tree growth from the target along the heaviest frontier edge.

    Only edges present in ``weights`` are considered; ties are broken by
    canonical edge rank. Growth stops at ``max_nodes`` nodes or when no
    weighted frontier edge remains.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be at least 1")
    erank = canonical_order(graph, target).edge_rank
    nodes = {target}
    chosen: list[int] = []
    while len(nodes) < max_nodes:
        best = None
        for node in nodes:
            for nbr, eid in graph.incidence[node]:
                if nbr in nodes or eid not in weights:
                    continue
                key = (-weights[eid], erank[eid])
                if best is None or key < best[0]:
                    best = (key, eid, nbr)
        if best is None:
            break
        chosen.append(best[1])
        nodes.add(best[2])
    return make_subgraph(graph, target, chosen)


@dataclass(frozen=True)
class ShapleyValue:
    """Mean simulatability drop from deleting one node, with its support size."""

    value: float
    support_count: int


def _leaf_scan(model, graph, target, config, epsilon, scorer, enumeration):
    """Yield (candidate, leaf, candidate without the leaf, simulatability drop).

    Visits candidates in enumeration order and their non-target nodes in
    node order, skipping nodes whose removal would disconnect the tree.
    """
    if enumeration is None:
        enumeration = enumerate_subgraphs(graph, target, config)
    if scorer is None:
        scorer = CandidateScorer(model, graph, target, epsilon)
    for sub in enumeration.subgraphs:
        for node in sub.node_set:
            incident = [eid for eid in sub.edge_set if node in graph.edges[eid]]
            if node == target or len(incident) != 1:
                continue
            remainder = make_subgraph(graph, target, [e for e in sub.edge_set if e != incident[0]])
            drop = scorer.candidate(sub).simulatability - scorer.candidate(remainder).simulatability
            yield sub, node, remainder, drop


def shapley_values(
    model: Model,
    graph: Graph,
    target: int,
    config: EnumConfig = EnumConfig(),
    epsilon: float = DEFAULT_EPSILON,
    scorer: CandidateScorer | None = None,
    enumeration: Enumeration | None = None,
) -> dict:
    """Per-node attribution averaged over the enumerated candidates.

    A candidate supports node j when j is one of its leaves, so deleting j
    leaves a valid tree; its contribution is the raw simulatability drop.
    Candidates where deletion would disconnect the tree are skipped and do
    not count toward the support.
    """
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for _, node, _, drop in _leaf_scan(model, graph, target, config, epsilon, scorer, enumeration):
        sums[node] = sums.get(node, 0.0) + drop
        counts[node] = counts.get(node, 0) + 1
    return {node: ShapleyValue(sums[node] / counts[node], counts[node]) for node in sorted(sums)}


def set_shapley_value(
    model: Model,
    graph: Graph,
    target: int,
    removed,
    config: EnumConfig = EnumConfig(),
    epsilon: float = DEFAULT_EPSILON,
    scorer: CandidateScorer | None = None,
    enumeration: Enumeration | None = None,
) -> ShapleyValue | None:
    """Attribution of deleting a whole node set, normalized per removed node.

    Averages the per-node relevance over every enumerated candidate that
    contains the set and stays a connected tree (with exactly that node
    difference) after deletion. None when no candidate supports the set.
    """
    removed = set(int(x) for x in removed)
    if target in removed:
        raise ValueError("cannot remove the target")
    if not removed:
        raise ValueError("removed set must be non-empty")
    if enumeration is None:
        enumeration = enumerate_subgraphs(graph, target, config)
    if scorer is None:
        scorer = CandidateScorer(model, graph, target, epsilon)
    index = {s.edge_set: s for s in enumeration.subgraphs}
    total, count = 0.0, 0
    for sub in enumeration.subgraphs:
        if not removed <= set(sub.node_set):
            continue
        keep = tuple(e for e in sub.edge_set if not (set(graph.edges[e]) & removed))
        rest = index.get(keep)
        if rest is None:
            continue
        if set(rest.node_set) != set(sub.node_set) - removed:
            continue
        rel = cf_relevance(
            scorer.candidate(sub).simulatability,
            scorer.candidate(rest).simulatability,
            len(removed),
        )
        total += rel
        count += 1
    if count == 0:
        return None
    return ShapleyValue(total / count, count)


def shapley_selection(
    model: Model,
    graph: Graph,
    target: int,
    config: EnumConfig = EnumConfig(),
    epsilon: float = DEFAULT_EPSILON,
    scorer: CandidateScorer | None = None,
    enumeration: Enumeration | None = None,
):
    """Explanation/counterfactual choice for the Shapley baseline.

    Scans every (candidate, deletable leaf) combination and keeps the one
    with the largest absolute simulatability drop; ties prefer smaller
    explanations, then canonical edge sets. None when the target has no
    two-node candidate at all.
    """
    best = None
    for sub, _, remainder, drop in _leaf_scan(model, graph, target, config, epsilon, scorer, enumeration):
        key = (-abs(drop), len(sub.node_set), sub.edge_set, remainder.edge_set)
        if best is None or key < best[0]:
            best = (key, sub, remainder)
    if best is None:
        return None
    return best[1], best[2]


def grad_weights_analytic(model: Model, graph: Graph, target: int, diameter: int | None = None) -> dict:
    """Closed-form saliency of the target's incident edges at the last layer.

    The weight of edge (j, target) is |(1 - P(y)) * theta_y . h_j| with y
    the predicted class, theta_y that class's last-layer column, and h_j
    node j's state entering the last layer. The closed form only covers the
    target's own aggregation, so neighborhood edges not incident to the
    target are reported with weight 0.
    """
    if diameter is None:
        diameter = model.depth
    probs = forward(model, graph, target)
    y = int(np.argmax(probs))
    margin = 1.0 - float(probs[y])
    theta_y = model.layers[-1][:, y]
    states = node_embeddings(model, graph, model.depth - 1)
    weights = {}
    for eid in neighborhood_edge_ids(graph, target, diameter):
        u, w = graph.edges[eid]
        if u == target or w == target:
            j = w if u == target else u
            weights[eid] = abs(margin * float(theta_y @ states[j]))
        else:
            weights[eid] = 0.0
    return weights


def grad_weights_fd(model: Model, graph: Graph, target: int, step: float, diameter: int | None = None) -> dict:
    """Zeroth-order saliency: loss shift from damping one edge's messages.

    Each neighborhood edge is masked to 1 - step (all others stay 1) and the
    weight is |masked_loss - baseline_loss| / step for the unmasked
    predicted class. Edges outside the model's receptive field come out
    exactly zero because the masked pass reproduces the baseline bitwise.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    if diameter is None:
        diameter = model.depth
    probs = forward(model, graph, target)
    y = int(np.argmax(probs))
    base = float(-np.log(probs[y]))
    weights = {}
    for eid in neighborhood_edge_ids(graph, target, diameter):
        shifted = masked_loss(model, graph, target, y, {eid: 1.0 - step})
        weights[eid] = abs(shifted - base) / step
    return weights
