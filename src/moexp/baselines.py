"""Edge-weight baselines and Shapley attribution over enumerated candidates.

All weight-based baselines emit a weight per edge inside the target's
D-hop ball and share the same greedy growth into an explanation tree, so
every method is scored by the same downstream machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gcn import Model, ball_messages, forward, layers_hidden, node_embeddings, softmax
from .graph import Ball, Graph, Subgraph, canonical_order, target_ball
from .explain import CandidateScorer, EnumConfig, Enumeration, _candidate_table, enumerate_subgraphs, DEFAULT_EPSILON


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


def grow_table(weights, graph: Graph, target: int, max_nodes: int, ball: Ball | None = None) -> Enumeration:
    """Greedy tree growth from the target along the heaviest frontier edge,
    as the one-path ``Enumeration`` of its steps: candidate k is the tree
    after k steps, grown from candidate k - 1.

    Only edges present in ``weights`` are considered; ties are broken by
    canonical edge rank. Growth stops at ``max_nodes`` nodes or when no
    weighted frontier edge remains. It reads the target's ball: ``ball``
    must hold every weighted edge the growth can reach, which the default
    ``max_nodes - 1`` hops always do. Each step is recorded as the DFS of
    ``enumerate_subgraphs`` records a candidate.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be at least 1")
    if ball is None:
        ball = canonical_order(graph, target, max_nodes - 1)
    else:
        ball = target_ball(graph, target, 0, ball)
    erank = ball.edge_rank
    rows = [0]
    # (parent, row grown from, node added, edge added, node count) per step.
    growth = [(-1, 0, 0, -1, 1)]
    while len(rows) < max_nodes:
        best = None
        for at, node in enumerate(rows):
            for nbr, eid in ball.incidence[node]:
                if nbr in rows or eid not in weights:
                    continue
                key = (-weights[eid], erank[eid])
                if best is None or key < best[0]:
                    best = (key, at, nbr, eid)
        if best is None:
            break
        growth.append((len(rows) - 1, *best[1:], len(rows) + 1))
        rows.append(best[2])
    return _candidate_table(target, ball, np.array(growth, dtype=np.intp), max_nodes)


def grow_subgraph(weights, graph: Graph, target: int, max_nodes: int, ball: Ball | None = None) -> Subgraph:
    """The tree that ``grow_table`` grows, as a ``Subgraph``."""
    tree = grow_table(weights, graph, target, max_nodes, ball)
    return tree.subgraph(len(tree) - 1)


@dataclass(frozen=True)
class ShapleyValue:
    """Mean simulatability drop from deleting one node, with its support size."""

    value: float
    support_count: int


def _scorer(model, graph, target, config, epsilon, scorer) -> CandidateScorer:
    if scorer is None:
        scorer = CandidateScorer(model, graph, enumerate_subgraphs(graph, target, config), epsilon)
    return scorer


def _endpoints(graph: Graph, edge_ids: np.ndarray):
    """The lo and hi ends of each edge of ``edge_ids``, -1 for its -1 padding."""
    if not graph.edge_count:  # every id is padding
        return np.full(edge_ids.shape, -1), np.full(edge_ids.shape, -1)
    pad = edge_ids < 0
    return np.where(pad, -1, graph.lo[edge_ids]), np.where(pad, -1, graph.hi[edge_ids])


def _leaf_scan(scorer: CandidateScorer) -> list:
    """(candidate, leaf, candidate without the leaf, simulatability drop)
    tuples, the candidates as enumeration positions.

    Visits candidates in enumeration order and their non-target nodes in
    node order, skipping nodes whose removal would disconnect the tree.
    Every candidate involved is scored in one ``scorer.pair`` call; a
    leaf's pair differs by one node, so its relevance is the raw drop.
    """
    enumeration = scorer.enumeration
    nodes = enumeration.node_ids
    lo, hi = _endpoints(scorer.graph, enumeration.edge_ids)
    # touches[i, a, b]: edge b of candidate i has node a of candidate i as an end.
    touches = (lo[:, None, :] == nodes[:, :, None]) | (hi[:, None, :] == nodes[:, :, None])
    leaf = (np.count_nonzero(touches, axis=2) == 1) & (nodes != scorer.target) & (nodes >= 0)
    i, at = np.nonzero(leaf)
    j = enumeration.remainders(i, touches[i, at])
    drops = scorer.pair(i, j).tolist()
    return list(zip(i.tolist(), nodes[i, at].tolist(), j.tolist(), drops))


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
    if not all(0 <= v < graph.node_count for v in removed):
        return None
    enumeration = scorer.enumeration
    gone = np.array(sorted(removed), dtype=np.intp)
    nodes, edges = enumeration.node_ids, enumeration.edge_ids
    i = np.flatnonzero((nodes[:, :, None] == gone).any(axis=1).all(axis=1))
    lo, hi = _endpoints(graph, edges[i])
    j = enumeration.remainders(i, ((lo[..., None] == gone) | (hi[..., None] == gone)).any(axis=2))
    # The remainder keeps only nodes outside the set, so equal sizes mean equal node sets.
    sizes = enumeration.sizes
    keep = (j >= 0) & (sizes[i] - sizes[j] == len(removed))
    if not keep.any():
        return None
    pairs = np.stack([i[keep], j[keep]], axis=1)
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
    ball (``ball``, of at least max(diameter, depth) hops, or a new one)
    and reads only its nodes within the model's depth in hops, as the
    weights do.
    """
    if diameter is None:
        diameter = model.depth
    ball = target_ball(graph, target, max(diameter, model.depth), ball)
    probs = forward(model, graph, target, ball=ball)
    y = int(np.argmax(probs))
    margin = 1.0 - float(probs[y])
    theta_y = model.layers[-1][:, y]
    # The states of the target and its neighbours, the ball's first rows.
    states = node_embeddings(model, ball, model.depth - 1, hops=model.depth)
    neighbour = {eid: j for j, eid in ball.incidence[0]}
    weights = {}
    for eid in neighborhood_edge_ids(graph, target, diameter, ball):
        j = neighbour.get(eid)
        weights[eid] = 0.0 if j is None else abs(margin * float(theta_y @ states[j]))
    return weights


# Most entries of node states and messages one grad-fd batch may hold: a
# target's passes run in consecutive batches of as many passes as stay
# under this (or one), so a hub's 1 + E passes keep memory bounded.
FD_BATCH_ENTRIES = 1 << 18


def grad_weights_fd(
    model: Model,
    graph: Graph,
    target: int,
    step: float,
    diameter: int | None = None,
    ball: Ball | None = None,
    reference: np.ndarray | None = None,
) -> dict:
    """Zeroth-order saliency: loss shift from damping one edge's messages.

    Each neighborhood edge is damped to 1 - step (all others stay 1) and the
    weight is |damped loss - loss| / step, the loss being the negative
    log-probability of the predicted class. ``reference`` is the target's
    class distribution under the model (``forward``'s, computed when not
    given). Edges outside the model's receptive field come out exactly zero
    because the damped pass reproduces the reference pass bitwise. Every
    pass runs on the target's ball (``ball``, of at least max(diameter,
    depth) hops, or a new one), as a row of a ``layers_hidden`` batch: row
    b scales both messages of the b-th edge. A batch holds at most
    ``FD_BATCH_ENTRIES`` entries of node states and messages, or one pass.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    if diameter is None:
        diameter = model.depth
    ball = target_ball(graph, target, max(diameter, model.depth), ball)
    if reference is None:
        reference = forward(model, graph, target, ball=ball)
    eids = neighborhood_edge_ids(graph, target, diameter, ball)
    if not eids:
        return {}
    # The nodes an L-layer pass reads, and each of its messages, slot by
    # slot, with the batch row that damps it or -1.
    k = ball.within[model.depth]
    node, neighbour, eid, bounds = ball_messages(ball, model.depth)
    row = {e: b for b, e in enumerate(eids)}
    damped = np.array([row.get(e, -1) for e in eid.tolist()], dtype=np.intp)
    width = max(d for layer in model.layers for d in layer.shape)
    size = max(1, FD_BATCH_ENTRIES // (k * width + len(node)))

    def passes(lo, hi):
        offset = np.arange(hi - lo) * k
        scale = np.ones((len(node), hi - lo))
        hit = np.flatnonzero((damped >= lo) & (damped < hi))
        scale[hit, damped[hit] - lo] = 1.0 - step
        columns = (node[:, None] + offset, neighbour[:, None] + offset, scale)
        messages = [tuple(a.ravel() for a in group) for group in zip(*(np.split(a, bounds) for a in columns))]
        h = np.tile(ball.features[:k], (hi - lo, 1))
        hops = np.tile(ball.distance[:k], hi - lo)
        return layers_hidden(model, h, hops, messages, target, k, tree_products=True)

    hidden = []
    for lo in range(0, len(eids), size):
        hi = min(lo + size, len(eids))
        try:
            hidden.append(passes(lo, hi))
        except ValueError:
            # A batch runs layer by layer, and the batches before passed;
            # report what the first pass to fail raises on its own, as
            # passes run one by one would.
            for b in range(lo, hi):
                passes(b, b + 1)
            raise
    probs = np.vstack([reference, softmax(np.concatenate(hidden))])
    y = int(np.argmax(probs[0]))
    loss = -np.log(probs[:, y])
    return dict(zip(eids, (np.abs(loss[1:] - loss[0]) / step).tolist()))
