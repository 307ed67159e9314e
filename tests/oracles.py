"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's own algorithms: trees are
found by filtering raw edge subsets, Pareto flags come from the quadratic
all-pairs definition, restricted predictions are computed by rebuilding the
subgraph as a standalone graph, two-layer outputs are expanded into nested
sums, and the symmetric KL uses the two-term textbook formula instead of the
package's fused form.
"""

from __future__ import annotations

import itertools

import numpy as np

from moexp import build_graph, forward


def edge_subset_nodes(edges, subset, target):
    nodes = {target}
    for eid in subset:
        u, w = edges[eid]
        nodes.add(u)
        nodes.add(w)
    return nodes


def is_tree_with_target(edges, subset, target):
    """Connected + acyclic + contains target, checked from first principles."""
    nodes = edge_subset_nodes(edges, subset, target)
    if len(subset) != len(nodes) - 1:
        return False
    adj = {v: [] for v in nodes}
    for eid in subset:
        u, w = edges[eid]
        adj[u].append(w)
        adj[w].append(u)
    seen = {target}
    stack = [target]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == nodes


def full_distances(graph, source):
    """Plain Dijkstra-free BFS used to judge the diameter bound."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in graph.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def brute_force_trees(graph, target, max_nodes, diameter):
    """All valid candidate edge sets, found by filtering every edge subset."""
    dist = full_distances(graph, target)
    found = {()}
    eids = range(len(graph.edges))
    for k in range(1, max_nodes):
        for subset in itertools.combinations(eids, k):
            if not is_tree_with_target(graph.edges, subset, target):
                continue
            nodes = edge_subset_nodes(graph.edges, subset, target)
            if len(nodes) > max_nodes:
                continue
            if any(v not in dist or dist[v] > diameter for v in nodes):
                continue
            found.add(subset)
    return found


def tree_records(graph, target, max_edges):
    """One pass over edge subsets up to ``max_edges``: (subset, size, radius).

    Lets a caller answer every (max_nodes, diameter) query for the same
    graph without re-scanning subsets.
    """
    dist = full_distances(graph, target)
    records = [((), 1, 0)]
    eids = range(len(graph.edges))
    for k in range(1, max_edges + 1):
        for subset in itertools.combinations(eids, k):
            if not is_tree_with_target(graph.edges, subset, target):
                continue
            nodes = edge_subset_nodes(graph.edges, subset, target)
            if any(v not in dist for v in nodes):
                continue
            radius = max(dist[v] for v in nodes)
            records.append((subset, len(nodes), radius))
    return records


def dominates_oracle(a, b):
    ge = a[0] >= b[0] and a[1] >= b[1]
    gt = a[0] > b[0] or a[1] > b[1]
    return ge and gt


def pareto_oracle(scores):
    """Quadratic all-pairs non-domination flags."""
    return [
        not any(dominates_oracle(scores[j], scores[i]) for j in range(len(scores)) if j != i)
        for i in range(len(scores))
    ]


def sym_kl(p, q, eps=1e-9):
    """Textbook two-term symmetric KL with uniform smoothing."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    k = p.size
    p = (1.0 - eps) * p + eps / k
    q = (1.0 - eps) * q + eps / k
    return float(np.sum(p * np.log(p / q)) + np.sum(q * np.log(q / p)))


def standalone_distribution(model, graph, target, edge_subset):
    """Prediction on the subgraph rebuilt as its own graph (no restrict path)."""
    nodes = sorted(edge_subset_nodes(graph.edges, edge_subset, target))
    remap = {v: i for i, v in enumerate(nodes)}
    feats = [graph.features[v] for v in nodes]
    edges = [(remap[graph.edges[e][0]], remap[graph.edges[e][1]]) for e in edge_subset]
    sub = build_graph(feats, edges)
    return forward(model, sub, remap[target])


def shapley_oracle(model, graph, target, max_nodes, diameter, eps=1e-9):
    """Leaf-removal attribution recomputed from scratch.

    Re-enumerates trees by subset filtering, evaluates every candidate as a
    standalone graph, and judges removability by rebuilding the remainder
    (valid iff dropping the node's incident edges leaves a tree over
    exactly the other nodes).
    """
    trees = brute_force_trees(graph, target, max_nodes, diameter)
    reference = forward(model, graph, target)

    def nu(subset):
        return -sym_kl(reference, standalone_distribution(model, graph, target, subset), eps)

    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for subset in trees:
        if not subset:
            continue
        nodes = edge_subset_nodes(graph.edges, subset, target)
        for j in nodes:
            if j == target:
                continue
            remainder = tuple(e for e in subset if j not in graph.edges[e])
            if not is_tree_with_target(graph.edges, remainder, target):
                continue
            if edge_subset_nodes(graph.edges, remainder, target) != nodes - {j}:
                continue
            delta = nu(subset) - nu(remainder)
            sums[j] = sums.get(j, 0.0) + delta
            counts[j] = counts.get(j, 0) + 1
    return {j: (sums[j] / counts[j], counts[j]) for j in sums}


def _activation(name, x):
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "sigmoid":
        return 0.5 * (1.0 + np.tanh(0.5 * x))
    return x


def sem_expand_check(model, graph, target, restrict=None):
    """Two-layer output of the target evaluated as one nested expression.

    Expands the layered recursion into explicit per-neighbor inner sums and
    evaluates them directly, with no layer loop, as an independent check of
    the message-passing implementation. Requires a two-layer model; honors
    the model's self-loop, mean, and final-activation settings.
    """
    if model.depth != 2:
        raise ValueError("requires a two-layer model")
    if restrict is not None and restrict.target != target:
        raise ValueError("target not in subgraph: restriction is anchored elsewhere")
    if graph.feature_dim != model.input_dim:
        raise ValueError("shape error: feature dim does not match first layer")
    first, second = model.layers

    if restrict is None:
        around = graph.adjacency
    else:
        around = {v: [] for v in restrict.node_set}
        for eid in restrict.edge_set:
            a, b = graph.edges[eid]
            around[a].append(b)
            around[b].append(a)
        for lst in around.values():
            lst.sort()

    feats = graph.features

    def inner_state(j):
        total = feats[j].copy() if model.self_loop else np.zeros(model.input_dim)
        count = 1 if model.self_loop else 0
        for k in around[j]:
            total += feats[k]
            count += 1
        if model.mean_aggregate and count:
            total = total / count
        return _activation(model.activation, total @ first)

    agg = inner_state(target) if model.self_loop else np.zeros(first.shape[1])
    count = 1 if model.self_loop else 0
    for j in around[target]:
        agg = agg + inner_state(j)
        count += 1
    if model.mean_aggregate and count:
        agg = agg / count
    z = agg @ second
    return _activation(model.activation, z) if model.final_activation else z


def random_graph(rng, max_nodes=8, edge_prob=0.4, feature_dim=2, min_nodes=2):
    """Erdos-style test graph with standard-normal features."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    feats = rng.standard_normal((n, feature_dim))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob]
    return build_graph(feats, edges)


def random_model(rng, feature_dim=2, hidden=3, classes=2, depth=2, activation="relu"):
    """Random dense stack with the requested shape chain."""
    from moexp import Model

    dims = [feature_dim] + [hidden] * (depth - 1) + [classes]
    layers = tuple(rng.standard_normal((dims[i], dims[i + 1])) for i in range(depth))
    return Model(layers=layers, activation=activation)
