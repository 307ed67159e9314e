"""Edge-weight baselines and Shapley attribution over enumerated candidates.

All weight-based baselines emit a weight per edge inside the target's
D-hop ball and share the same greedy growth into an explanation tree, so
every method is scored by the same downstream machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gcn import Model, forward, layers_hidden, node_embeddings, softmax
from .graph import Ball, Graph, Subgraph, canonical_order, make_subgraph, target_ball
from .explain import CandidateScorer, EnumConfig, enumerate_subgraphs, DEFAULT_EPSILON


def neighborhood_edge_ids(graph: Graph, target: int, diameter: int, ball: Ball | None = None) -> list:
    """Ids of edges whose endpoints both lie within ``diameter`` hops of
    target, ascending; read from the target's ball (``ball``, of at least
    ``diameter`` hops, or a new one)."""
    ball = target_ball(graph, target, diameter, ball)
    inner = ball.within[diameter]
    return sorted(eid for i in range(inner) for j, eid in ball.incidence[i] if i < j < inner)


def random_weights(graph: Graph, target: int, config: EnumConfig, seed: int, ball: Ball | None = None) -> dict:
    """Uniform [0, 1) weight per neighborhood edge from a PCG64 stream."""
    rng = np.random.default_rng(seed)
    eids = neighborhood_edge_ids(graph, target, config.diameter, ball)
    values = rng.random(len(eids))
    return {eid: float(v) for eid, v in zip(eids, values)}


def grow_subgraph(weights, graph: Graph, target: int, max_nodes: int, ball: Ball | None = None) -> Subgraph:
    """Greedy tree growth from the target along the heaviest frontier edge.

    Only edges present in ``weights`` are considered; ties are broken by
    canonical edge rank. Growth stops at ``max_nodes`` nodes or when no
    weighted frontier edge remains. It reads the target's ball: ``ball``
    must hold every weighted edge the growth can reach, which the default
    ``max_nodes - 1`` hops always do.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be at least 1")
    if ball is None:
        ball = canonical_order(graph, target, max_nodes - 1)
    else:
        ball = target_ball(graph, target, 0, ball)
    erank = ball.edge_rank
    nodes = {0}
    chosen: list[int] = []
    while len(nodes) < max_nodes:
        best = None
        for node in nodes:
            for nbr, eid in ball.incidence[node]:
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


def _scorer(model, graph, target, config, epsilon, scorer) -> CandidateScorer:
    if scorer is None:
        scorer = CandidateScorer(model, graph, enumerate_subgraphs(graph, target, config), epsilon)
    return scorer


def _leaf_scan(scorer: CandidateScorer) -> list:
    """(candidate, leaf, candidate without the leaf, simulatability drop)
    tuples, the candidates as enumeration positions.

    Visits candidates in enumeration order and their non-target nodes in
    node order, skipping nodes whose removal would disconnect the tree.
    Every candidate involved is scored in one ``scorer.pair`` call; a
    leaf's pair differs by one node, so its relevance is the raw drop.
    """
    enumeration = scorer.enumeration
    edges = scorer.graph.edges
    found = []
    for i, sub in enumerate(enumeration.subgraphs):
        for node in sub.node_set:
            incident = [eid for eid in sub.edge_set if node in edges[eid]]
            if node == scorer.target or len(incident) != 1:
                continue
            found.append((i, node, enumeration.index[tuple(e for e in sub.edge_set if e != incident[0])]))
    pairs = np.array([(i, j) for i, _, j in found], dtype=np.intp).reshape(-1, 2)
    drops = scorer.pair(pairs[:, 0], pairs[:, 1]).tolist()
    return [(i, node, j, drop) for (i, node, j), drop in zip(found, drops)]


def shapley_values(
    model: Model,
    graph: Graph,
    target: int,
    config: EnumConfig = EnumConfig(),
    epsilon: float = DEFAULT_EPSILON,
    scorer: CandidateScorer | None = None,
) -> dict:
    """Per-node attribution averaged over the enumerated candidates.

    A candidate supports node j when j is one of its leaves, so deleting j
    leaves a valid tree; its contribution is the raw simulatability drop.
    Candidates where deletion would disconnect the tree are skipped and do
    not count toward the support.
    """
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for _, node, _, drop in _leaf_scan(_scorer(model, graph, target, config, epsilon, scorer)):
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
    scorer = _scorer(model, graph, target, config, epsilon, scorer)
    enumeration = scorer.enumeration
    sizes = enumeration.sizes
    pairs = []
    for i, sub in enumerate(enumeration.subgraphs):
        if not removed <= set(sub.node_set):
            continue
        j = enumeration.index.get(tuple(e for e in sub.edge_set if not (set(graph.edges[e]) & removed)))
        # The remainder keeps only nodes outside the set, so equal sizes mean equal node sets.
        if j is not None and sizes[i] - sizes[j] == len(removed):
            pairs.append((i, j))
    if not pairs:
        return None
    pairs = np.array(pairs, dtype=np.intp)
    # Each pair removes exactly the set, so its relevance is cf_relevance's.
    total = 0.0
    for value in scorer.pair(pairs[:, 0], pairs[:, 1]).tolist():
        total += value
    return ShapleyValue(total / len(pairs), len(pairs))


def shapley_selection(
    model: Model,
    graph: Graph,
    target: int,
    config: EnumConfig = EnumConfig(),
    epsilon: float = DEFAULT_EPSILON,
    scorer: CandidateScorer | None = None,
):
    """Explanation/counterfactual positions chosen by the Shapley baseline.

    Scans every (candidate, deletable leaf) combination and keeps the one
    with the largest absolute simulatability drop; ties prefer smaller
    explanations, then canonical edge sets. None when the target has no
    two-node candidate at all.
    """
    scorer = _scorer(model, graph, target, config, epsilon, scorer)
    sizes, rank = scorer.enumeration.sizes, scorer.enumeration.edge_set_rank
    best = None
    for i, _, j, drop in _leaf_scan(scorer):
        key = (-abs(drop), sizes[i], rank[i], rank[j])
        if best is None or key < best[0]:
            best = (key, i, j)
    return None if best is None else best[1:]


def grad_weights_analytic(
    model: Model, graph: Graph, target: int, diameter: int | None = None, ball: Ball | None = None
) -> dict:
    """Closed-form saliency of the target's incident edges at the last layer.

    The weight of edge (j, target) is |(1 - P(y)) * theta_y . h_j| with y
    the predicted class, theta_y that class's last-layer column, and h_j
    node j's state entering the last layer. The closed form only covers the
    target's own aggregation, so neighborhood edges not incident to the
    target are reported with weight 0. Every pass runs on the target's
    ball (``ball``, of at least max(diameter, depth) hops, or a new one).
    """
    if diameter is None:
        diameter = model.depth
    ball = target_ball(graph, target, max(diameter, model.depth), ball)
    probs = forward(model, graph, target, ball=ball)
    y = int(np.argmax(probs))
    margin = 1.0 - float(probs[y])
    theta_y = model.layers[-1][:, y]
    states = node_embeddings(model, ball, model.depth - 1)
    weights = {}
    for eid in neighborhood_edge_ids(graph, target, diameter, ball):
        u, w = graph.edges[eid]
        if u == target or w == target:
            j = w if u == target else u
            weights[eid] = abs(margin * float(theta_y @ states[ball.node_rank[j]]))
        else:
            weights[eid] = 0.0
    return weights


# Most entries of node states and messages one grad-fd batch may hold: a
# target's passes run in consecutive batches of as many passes as stay
# under this (or one), so a hub's 1 + E passes keep memory bounded.
FD_BATCH_ENTRIES = 1 << 18


def grad_weights_fd(
    model: Model, graph: Graph, target: int, step: float, diameter: int | None = None, ball: Ball | None = None
) -> dict:
    """Zeroth-order saliency: loss shift from damping one edge's messages.

    Each neighborhood edge is masked to 1 - step (all others stay 1) and the
    weight is |masked loss - unmasked loss| / step, the loss being the
    negative log-probability of the unmasked predicted class. Edges outside
    the model's receptive field come out exactly zero because the masked
    pass reproduces the unmasked one bitwise. Every pass runs on the
    target's ball (``ball``, of at least max(diameter, depth) hops, or a new
    one), as a row of a ``layers_hidden`` batch with the bits of
    ``masked_loss`` on that edge: row 0 is the unmasked pass and row b
    scales both messages of the b-th edge. A batch holds at most
    ``FD_BATCH_ENTRIES`` entries of node states and messages, or one pass.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    if diameter is None:
        diameter = model.depth
    ball = target_ball(graph, target, max(diameter, model.depth), ball)
    eids = neighborhood_edge_ids(graph, target, diameter, ball)
    # The nodes an L-layer pass reads, and the ones it computes; the latter
    # have all their neighbours among the former.
    k, inner = ball.within[model.depth], ball.within[model.depth - 1]
    row = {eid: b for b, eid in enumerate(eids, 1)}
    # Each message of a pass, slot by slot: (slot, node, neighbour, batch
    # row that damps it or 0).
    entries = [
        (s, i, j, row.get(eid, 0))
        for i, pairs in enumerate(ball.incidence[:inner])
        for s, (j, eid) in enumerate(pairs)
    ]
    slot, node, neighbour, damped = np.array(sorted(entries), dtype=np.intp).reshape(-1, 4).T
    bounds = np.flatnonzero(np.diff(slot)) + 1
    width = max(d for layer in model.layers for d in layer.shape)
    size = max(1, FD_BATCH_ENTRIES // (k * width + len(entries)))

    def passes(lo, hi):
        offset = np.arange(hi - lo) * k
        scale = np.ones((len(entries), hi - lo))
        hit = np.flatnonzero((damped >= max(lo, 1)) & (damped < hi))
        scale[hit, damped[hit] - lo] = 1.0 - step
        columns = (node[:, None] + offset, neighbour[:, None] + offset, scale)
        messages = [tuple(a.ravel() for a in group) for group in zip(*(np.split(a, bounds) for a in columns))]
        h = np.tile(ball.features[:k], (hi - lo, 1))
        hops = np.tile(ball.distance[:k], hi - lo)
        return layers_hidden(model, h, hops, messages, target, k, tree_products=True)

    count = 1 + len(eids)
    hidden = []
    for lo in range(0, count, size):
        hi = min(lo + size, count)
        try:
            hidden.append(passes(lo, hi))
        except ValueError:
            # A batch runs layer by layer, and the batches before passed;
            # report what the first pass to fail raises on its own, as
            # passes run one by one would.
            for b in range(lo, hi):
                passes(b, b + 1)
            raise
    probs = softmax(np.concatenate(hidden))
    y = int(np.argmax(probs[0]))
    loss = -np.log(probs[:, y])
    return dict(zip(eids, (np.abs(loss[1:] - loss[0]) / step).tolist()))
