"""Edge-weight baselines and Shapley attribution over enumerated candidates.

All weight-based baselines emit a weight per edge inside the target's
D-hop ball and share the same greedy growth into an explanation tree, so
every method is scored by the same downstream machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gcn import Model, ball_hidden, batch_runs, forward, node_embeddings, softmax
from .graph import Ball, Graph, canonical_order, require_hops
from .explain import CandidateScorer, EnumConfig, Enumeration, enumerate_subgraphs, growth_table, DEFAULT_EPSILON


def neighborhood_edge_ids(ball: Ball, diameter: int) -> list:
    """Ids of edges whose endpoints both lie within ``diameter`` hops of
    the ball's target, ascending; the ball has at least ``diameter`` hops."""
    require_hops(ball, diameter)
    inner = ball.within[diameter]
    owner = np.arange(len(ball.nodes)).repeat(np.diff(ball.indptr))
    return np.sort(ball.edge[(owner < ball.nbr) & (ball.nbr < inner)]).tolist()


def random_weights(ball: Ball, diameter: int, seed: int) -> dict:
    """Uniform [0, 1) weight per edge within ``diameter`` hops of the
    ball's target, from a PCG64 stream."""
    rng = np.random.default_rng(seed)
    eids = neighborhood_edge_ids(ball, diameter)
    values = rng.random(len(eids))
    return {eid: float(v) for eid, v in zip(eids, values)}


def grow_table(weights, ball: Ball, max_nodes: int) -> Enumeration:
    """Greedy tree growth from the ball's target along the heaviest
    frontier edge, as the one-path ``Enumeration`` of its steps: candidate
    k is the tree after k steps, grown from candidate k - 1.

    Only edges present in ``weights`` are considered; ties are broken by
    the ball's ``edge_key``, the canonical edge order. Growth stops at
    ``max_nodes`` nodes or when no weighted frontier edge remains. It reads
    the runs of the ball, which must hold every weighted edge of each tree
    node growth extends: ``max_nodes - 1`` hops always do, and a node on
    the ball's rim with a weighted edge that leaves the ball raises the
    shallow-ball ``ValueError``. Each step is recorded as the DFS of
    ``enumerate_subgraphs`` records a candidate, in a table whose
    ``config`` holds the bounds growth obeys: ``max_nodes`` nodes within
    ``max_nodes - 1`` hops (at least 1).
    """
    config = EnumConfig(max_nodes, max(1, max_nodes - 1))
    graph = ball.graph
    stops, nbrs, eids, keys = (a.tolist() for a in (ball.indptr, ball.nbr, ball.edge, ball.edge_key))
    rows = [0]
    # (parent, row grown from, node added, edge added, node count) per step.
    growth = [(-1, 0, 0, -1, 1)]
    while len(rows) < max_nodes:
        new = rows[-1]  # its run is read for the first time
        if ball.distance[new] == ball.hops:
            # The ball lists a rim node's edges inside it only.
            u = ball.nodes[new]
            edges = set(graph.nbr_edge[graph.indptr[u] : graph.indptr[u + 1]].tolist())
            if any(e in weights for e in edges.difference(eids[stops[new] : stops[new + 1]])):
                require_hops(ball, ball.hops + 1)
        best = None
        for at, node in enumerate(rows):
            for k in range(stops[node], stops[node + 1]):
                if nbrs[k] in rows or eids[k] not in weights:
                    continue
                key = (-weights[eids[k]], keys[k])
                if best is None or key < best[0]:
                    best = (key, at, nbrs[k], eids[k])
        if best is None:
            break
        growth.append((len(rows) - 1, *best[1:], len(rows) + 1))
        rows.append(best[2])
    return growth_table(ball, np.array(growth, dtype=np.intp), config)


@dataclass(frozen=True)
class ShapleyValue:
    """Mean simulatability drop from deleting one node, with its support size."""

    value: float
    support_count: int


def _leaf_scan(scorer: CandidateScorer) -> tuple:
    """(candidates, candidates without a leaf, leaves, simulatability drops)
    arrays, the candidates as enumeration positions, one entry per
    candidate and non-target leaf.

    Drops each candidate's edges one at a time and looks up what remains
    with ``Enumeration.remainders``: it is a candidate exactly when the
    dropped edge held a leaf other than the target. The entries follow the
    enumeration order, each candidate's in edge order. Every candidate
    involved is scored in one ``scorer.pair`` call; a leaf's pair differs by
    one node, so its relevance is the raw drop.
    """
    enumeration = scorer.enumeration
    i, column = np.nonzero(enumeration.edge_ids >= 0)
    j = enumeration.remainders(i, np.arange(enumeration.edge_ids.shape[1]) == column[:, None])
    i, j = i[j >= 0], j[j >= 0]
    return i, j, enumeration.removed_node_ids(i, j)[:, 0], scorer.pair(i, j)


def shapley_values(
    model: Model,
    graph: Graph,
    target: int,
    config: EnumConfig = EnumConfig(),
    epsilon: float = DEFAULT_EPSILON,
) -> dict:
    """Per-node attribution averaged over the enumerated candidates.

    A candidate supports node j when j is one of its leaves, so deleting j
    leaves a valid tree; its contribution is the raw simulatability drop.
    Candidates where deletion would disconnect the tree are skipped and do
    not count toward the support.
    """
    # One ball serves the search and the reference pass.
    ball = canonical_order(graph, target, max(config.diameter, model.depth))
    scorer = CandidateScorer(model, enumerate_subgraphs(ball, config), epsilon)
    _, _, leaves, drops = _leaf_scan(scorer)
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for node, drop in zip(leaves.tolist(), drops.tolist()):  # in enumeration order
        sums[node] = sums.get(node, 0.0) + drop
        counts[node] = counts.get(node, 0) + 1
    return {node: ShapleyValue(sums[node] / counts[node], counts[node]) for node in sorted(sums)}


def shapley_selection(scorer: CandidateScorer):
    """Explanation/counterfactual positions in ``scorer``'s table chosen by
    the Shapley baseline.

    Scans every (candidate, deletable leaf) combination and keeps the one
    with the largest absolute simulatability drop; ties prefer smaller
    explanations, then canonical edge sets. None when the target has no
    two-node candidate at all.
    """
    i, j, _, drops = _leaf_scan(scorer)
    if not i.size:
        return None
    sizes, rank = scorer.enumeration.sizes, scorer.enumeration.edge_set_rank
    best = np.lexsort((rank[j], rank[i], sizes[i], -np.abs(drops)))[0]
    return int(i[best]), int(j[best])


def grad_weights_analytic(model: Model, ball: Ball, diameter: int) -> dict:
    """Closed-form saliency of the target's incident edges at the last layer.

    The weight of edge (j, target) is |(1 - P(y)) * theta_y . h_j| with y
    the predicted class, theta_y that class's last-layer column, and h_j
    node j's state entering the last layer. The closed form only covers the
    target's own aggregation, so neighborhood edges not incident to the
    target are reported with weight 0. Every pass runs on the target's
    ball, of at least max(diameter, depth) hops, and reads only its nodes
    within the model's depth in hops, as the weights do.
    """
    require_hops(ball, max(diameter, model.depth))
    probs = forward(model, ball)
    y = int(np.argmax(probs))
    margin = 1.0 - float(probs[y])
    theta_y = model.layers[-1][:, y]
    # The states of the target and its neighbours, the ball's first rows.
    states = node_embeddings(model, ball, model.depth - 1, hops=model.depth)
    neighbour = dict(zip(ball.edge[: ball.indptr[1]].tolist(), ball.nbr[: ball.indptr[1]].tolist()))
    weights = {}
    for eid in neighborhood_edge_ids(ball, diameter):
        j = neighbour.get(eid)
        weights[eid] = 0.0 if j is None else abs(margin * float(theta_y @ states[j]))
    return weights


def grad_weights_fd(model: Model, ball: Ball, step: float, diameter: int, reference: np.ndarray | None = None) -> dict:
    """Zeroth-order saliency: loss shift from damping one edge's messages.

    Each neighborhood edge is damped to 1 - step (all others stay 1) and the
    weight is |damped loss - loss| / step, the loss being the negative
    log-probability of the predicted class. ``reference`` is the target's
    class distribution under the model (``forward``'s, computed when not
    given). Edges outside the model's receptive field come out exactly zero
    because the damped pass reproduces the reference pass bitwise. Every
    pass runs on the target's ball, of at least max(diameter, depth) hops,
    as a damped copy of ``gcn.ball_hidden``'s pass: copy b scales both
    messages of the b-th edge. The batches are the ``gcn.batch_runs`` of
    the copies, a copy holding its node states and messages.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    require_hops(ball, max(diameter, model.depth))
    if reference is None:
        reference = forward(model, ball)
    eids = neighborhood_edge_ids(ball, diameter)
    if not eids:
        return {}
    # A pass holds the states of the nodes it reads, and the messages of
    # those within L - 1 hops.
    entries = ball.within[model.depth] * model.max_width + ball.indptr[ball.within[model.depth - 1]]
    hidden = []
    for lo, hi in batch_runs(len(eids), entries):
        try:
            hidden.append(ball_hidden(model, ball, model.depth, damped=eids[lo:hi], factor=1.0 - step))
        except ValueError:
            # A batch runs layer by layer, and the batches before passed;
            # report what the first pass to fail raises on its own, as
            # passes run one by one would.
            for b in range(lo, hi):
                ball_hidden(model, ball, model.depth, damped=eids[b : b + 1], factor=1.0 - step)
            raise
    probs = np.vstack([reference, softmax(np.concatenate(hidden))])
    y = int(np.argmax(probs[0]))
    loss = -np.log(probs[:, y])
    return dict(zip(eids, (np.abs(loss[1:] - loss[0]) / step).tolist()))
