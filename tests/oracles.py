"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's own algorithms: graphs are
validated and assembled entry by entry, trees are found by filtering raw edge
subsets, Pareto flags come from the quadratic
all-pairs definition, restricted predictions are computed by rebuilding the
subgraph as a standalone graph, two-layer outputs are expanded into nested
sums, and the symmetric KL uses the two-term textbook formula instead of the
package's fused form.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from moexp import Subgraph, build_graph, forward, neighborhood_edge_ids, softmax, target_ball
from moexp.gcn import trees_hidden
from moexp.analysis import confounder_set
from moexp.cli import _candidate_block, _floats, top_count
from moexp.pareto import _select
from moexp.io import FormatError


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


def bfs_distances(graph, source: int) -> list:
    """Hop distance from ``source`` to every node; None when unreachable."""
    if not 0 <= source < graph.node_count:
        raise ValueError(f"node id out of range: {source}")
    dist: list = [None] * graph.node_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.adjacency[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@dataclass(frozen=True)
class CanonicalOrder:
    """Deterministic node and edge ranks relative to a target.

    ``node_rank[v]`` is the BFS discovery position from the target, ties
    broken by ascending node id; ``edge_rank[e]`` orders edges by the sorted
    pair of endpoint ranks. A ``Ball`` holds them for its nodes and edges.
    """

    node_rank: tuple[int, ...]
    edge_rank: tuple[int, ...]


def full_canonical_order(graph, target: int) -> CanonicalOrder:
    """The canonical order over the whole graph, which a ball's ranks follow.

    ``node_rank[v]`` is the BFS discovery position from the target, ties
    broken by ascending node id; unreachable nodes come last, ascending.
    ``edge_rank[e]`` orders edges by the sorted pair of endpoint ranks.
    """
    if not 0 <= target < graph.node_count:
        raise ValueError(f"node id out of range: {target}")
    dist = bfs_distances(graph, target)
    reachable = sorted((v for v in range(graph.node_count) if dist[v] is not None), key=lambda v: (dist[v], v))
    unreachable = [v for v in range(graph.node_count) if dist[v] is None]
    node_rank = [0] * graph.node_count
    for rank, v in enumerate(reachable + unreachable):
        node_rank[v] = rank

    keyed = sorted(
        range(len(graph.edges)),
        key=lambda e: tuple(sorted((node_rank[graph.edges[e][0]], node_rank[graph.edges[e][1]]))),
    )
    edge_rank = [0] * len(graph.edges)
    for rank, eid in enumerate(keyed):
        edge_rank[eid] = rank
    return CanonicalOrder(tuple(node_rank), tuple(edge_rank))


def reference_ball(graph, target: int, hops: int) -> dict:
    """The fields of ``canonical_order(graph, target, hops)`` as the BFS over
    the graph's tuples built them before the graph was held as arrays."""
    nodes, distance, within = [target], [0], [1]
    rank = {target: 0}
    frontier = [target]
    for d in range(1, hops + 1):
        frontier = sorted({w for u in frontier for w in graph.adjacency[u] if w not in rank})
        for w in frontier:
            rank[w] = len(nodes)
            nodes.append(w)
        distance += [d] * len(frontier)
        within.append(len(nodes))
    incidence = tuple(tuple((rank[w], eid) for w, eid in graph.incidence[u] if w in rank) for u in nodes)
    keyed = sorted((i, j, eid) for i, pairs in enumerate(incidence) for j, eid in pairs if i < j)
    return {
        "node_rank": rank,
        "edge_rank": {eid: r for r, (_, _, eid) in enumerate(keyed)},
        "target": target,
        "hops": hops,
        "nodes": tuple(nodes),
        "distance": tuple(distance),
        "within": tuple(within),
        "incidence": incidence,
        "features": graph.features[nodes],
    }


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


@dataclass(frozen=True, eq=False)
class ReferenceEnumeration:
    """An enumeration as the recursive DFS builds it: one ``Subgraph`` per
    candidate, parent links (None for the root), and the candidate table
    (``rows``, ``depth``, ``slots``) filled in one candidate at a time."""

    target: int
    subgraphs: tuple
    parents: tuple
    rows: np.ndarray
    depth: np.ndarray
    slots: np.ndarray

    def __len__(self) -> int:
        return len(self.subgraphs)

    @property
    def index(self) -> dict:
        return {s.edge_set: i for i, s in enumerate(self.subgraphs)}

    @property
    def edge_set_rank(self) -> np.ndarray:
        return np.argsort(sorted(range(len(self.subgraphs)), key=lambda i: self.subgraphs[i].edge_set))

    def removed_nodes(self, i: int, j: int) -> list:
        kept = set(self.subgraphs[j].node_set)
        return [v for v in self.subgraphs[i].node_set if v not in kept]

    def counterfactuals(self, i: int, exhaustive: bool) -> list:
        """Candidate i's counterfactuals in pairing order: the growth
        ancestors nearest first, or every enumerated proper sub-tree in
        ``itertools.combinations`` order of its edge set; the bare target
        only for two-node explanations."""
        sub = self.subgraphs[i]
        if exhaustive:
            index = self.index
            combos = (c for r in range(len(sub.edge_set)) for c in itertools.combinations(sub.edge_set, r))
            out = [j for j in map(index.get, combos) if j is not None]
        else:
            out = []
            j = self.parents[i]
            while j is not None:
                out.append(j)
                j = self.parents[j]
        if len(sub.node_set) >= 3:
            out = [j for j in out if self.subgraphs[j].edge_set]
        return out


def recursive_enumeration(graph, target, config, ball=None) -> ReferenceEnumeration:
    """The DFS that builds every tree: each step recomputes the extension
    edges of the whole tree, tries them in canonical rank order, and
    forbids a branch's edge for its later siblings."""
    ball = target_ball(graph, target, config.diameter, ball)
    dist, erank, incidence, global_id = ball.distance, ball.edge_rank, ball.incidence, ball.nodes
    subgraphs, parents, tables = [], [], []

    def expand(edge_ids, rows, depth, tree, parent, forbidden):
        index = len(subgraphs)
        subgraphs.append(Subgraph(target, tuple(sorted(edge_ids)), tuple(sorted(global_id[r] for r in rows))))
        parents.append(parent)
        slots = [sorted(tree[r], key=lambda q: global_id[rows[q]]) for r in range(len(rows))]
        tables.append((rows, depth, slots))
        if len(rows) >= config.max_nodes:
            return
        extensions = []
        for r, node in enumerate(rows):
            for nbr, eid in incidence[node]:
                if eid in forbidden or nbr in rows or dist[nbr] > config.diameter:
                    continue
                extensions.append((erank[eid], eid, nbr, r))
        extensions.sort()
        blocked = set(forbidden)
        for _, eid, nbr, r in extensions:
            grown = tuple(t + (len(rows),) if q == r else t for q, t in enumerate(tree)) + ((r,),)
            expand(edge_ids + (eid,), rows + (nbr,), depth + (depth[r] + 1,), grown, index, frozenset(blocked))
            blocked.add(eid)

    expand((), (0,), (0,), ((),), None, frozenset())
    c = config.max_nodes
    rows = np.full((len(tables), c), -1, dtype=np.int32)
    depth = np.full((len(tables), c), -1, dtype=np.int32)
    slots = np.full((len(tables), c, c - 1), -1, dtype=np.int32)
    for i, (r, d, s) in enumerate(tables):
        rows[i, : len(r)] = r
        depth[i, : len(d)] = d
        for k, row in enumerate(s):
            slots[i, k, : len(row)] = row
    return ReferenceEnumeration(target, tuple(subgraphs), tuple(parents), rows, depth, slots)


def reference_pairs(enumeration, exhaustive: bool) -> list:
    """(explanation, counterfactual) positions, one candidate at a time."""
    return [(i, j) for i in range(len(enumeration)) for j in enumeration.counterfactuals(i, exhaustive)]


def dominates(a, b) -> bool:
    """True when a is at least as good as b in both coordinates and better in one."""
    return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


@dataclass(frozen=True)
class Selection:
    """``pareto._select``'s ranks, flags, order and pick as tuples."""

    sim_ranks: tuple
    rel_ranks: tuple
    rank_sums: tuple
    pareto: tuple
    order: tuple
    selected: int


def _scores(scores, tie_keys, balanced: bool) -> Selection:
    pairs = np.asarray(scores, dtype=float).reshape(-1, 2)
    # Positions in a stable sort by key keep the (key, index) order.
    keys = [] if tie_keys is None else [np.argsort(sorted(range(len(tie_keys)), key=tie_keys.__getitem__))]
    front = _select(pairs[:, 0], pairs[:, 1], keys, balanced)
    return Selection(
        *(tuple(a.tolist()) for a in (front.sim_ranks, front.rel_ranks, front.rank_sums, front.pareto, front.order)),
        front.selected,
    )


def select_comprehensive(scores, tie_keys=None) -> Selection:
    """Pick the minimal rank sum; ties fall back to the given sort keys, then the index."""
    return _scores(scores, tie_keys, balanced=False)


def select_balanced(scores, tie_keys=None) -> Selection:
    """Pick the pair whose two ranks are closest, favoring small rank sums.

    The primary key is |sim_rank - rel_rank|, the secondary key the rank
    sum, and remaining ties fall back to the given sort keys, then the index.
    """
    return _scores(scores, tie_keys, balanced=True)


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


def _package_activation(name, x):
    """The package's activations, formula for formula, so results compare bitwise."""
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "sigmoid":
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out
    return x


def full_states(model, graph, depth, mask=None, extra_message=None, at=None):
    """Every node's state after ``depth`` layers, by one loop over the whole graph.

    This is the package's layer loop as it ran before passes were limited to
    a target's ball: every node is aggregated at every layer, in
    ``graph.incidence`` order, and each layer is one product over all rows.
    ``mask`` scales messages by edge id; ``extra_message`` joins node
    ``at``'s aggregation at the model's last layer.
    """
    return _row_loop(model, graph.features, graph.incidence, depth, mask, extra_message, at)


def restricted_hidden(model, graph, v, restrict, mask=None, extra_message=None):
    """Last-layer state of v on the subgraph ``restrict`` alone, by the per-row loop.

    This is how a restricted pass ran before the batched tree kernel: the
    subgraph's nodes in ascending id order, each with its (neighbour, edge
    id) list sorted by neighbour, and every node computed at every layer,
    one product over all of them per layer.
    """
    scope = restrict.node_set
    local = {node: i for i, node in enumerate(scope)}
    incidence = [[] for _ in scope]
    for eid in restrict.edge_set:
        a, b = graph.edges[eid]
        incidence[local[a]].append((local[b], eid))
        incidence[local[b]].append((local[a], eid))
    for pairs in incidence:
        pairs.sort()
    h = _row_loop(model, graph.features[list(scope)], incidence, model.depth, mask, extra_message, local[v])
    return h[local[v]]


def _tree_table(graph, sub: Subgraph):
    """``sub`` as a one-tree batch for ``trees_hidden``: (rows, depth,
    slots), with global node ids as rows, the target first and then
    ascending. A node that the target cannot reach through ``sub`` gets a
    depth beyond every layer, so no layer computes it."""
    nodes = [sub.target] + [u for u in sub.node_set if u != sub.target]
    local = {u: i for i, u in enumerate(nodes)}
    adjacent: list[list[int]] = [[] for _ in nodes]
    for a, b in graph.endpoints(sub.edge_set):
        adjacent[local[a]].append(b)
        adjacent[local[b]].append(a)
    k = len(nodes)
    slots = np.full((k, k - 1), -1)
    for i, nbrs in enumerate(adjacent):
        nbrs.sort()
        slots[i, : len(nbrs)] = [local[u] for u in nbrs]
    depth = np.full(k, np.iinfo(np.intp).max)
    depth[0] = 0
    queue = [0]
    for i in queue:
        for j in slots[i, : len(adjacent[i])]:
            if depth[j] > depth[i] + 1:
                depth[j] = depth[i] + 1
                queue.append(j)
    return np.array([nodes]), depth[None], slots[None]


def restricted_hidden_tree(model, graph, v, sub: Subgraph, extra_message=None):
    """Last-layer state of v on the tree ``sub`` alone, by a one-tree
    ``trees_hidden`` batch built from the subgraph, not from a candidate
    table.

    This is how ``forward_hidden(restrict=sub)`` ran before every tree was
    scored from a growth table: the tree's rows are global ids, the target
    first and then ascending, with hops and neighbour slots found by a BFS
    over ``sub``'s edges.
    """
    assert sub.target == v, "the tree must be anchored at v"
    rows, depth, slots = _tree_table(graph, sub)
    return trees_hidden(model, graph.features, rows, depth, slots, v, extra_message)[0]


def restricted_forward(model, graph, v, sub: Subgraph, extra_message=None):
    """Class distribution of ``restricted_hidden_tree``."""
    return softmax(restricted_hidden_tree(model, graph, v, sub, extra_message))


def ball_hidden(model, graph, v, mask=None, extra_message=None, ball=None):
    """Last-layer state of v by the per-row loop over v's ball.

    This is how ``forward_hidden`` ran before ball passes used the tree
    kernel: layer l computes the leading ball rows within L - 1 - l hops,
    each over its ``ball.incidence`` in order, and a product gets zero rows
    up to ``min(2, graph.node_count)``, as one over the whole graph has.
    ``mask`` scales messages by edge id; ``extra_message`` joins v's
    aggregation at the last layer. An overflow or invalid operation raises
    the package's ``ValueError``.
    """
    ball = target_ball(graph, v, model.depth, ball)
    rows = [ball.within[model.depth - 1 - li] for li in range(model.depth)]
    try:
        with np.errstate(over="raise", invalid="raise"):
            h = _row_loop(
                model, ball.features, ball.incidence, model.depth, mask, extra_message, 0, rows,
                min(2, graph.node_count),
            )
    except FloatingPointError as exc:
        raise ValueError(f"forward pass at node {v}: {exc}") from None
    return h[0]


def masked_loss(model, graph, v, y, mask, ball=None):
    """Negative log-probability of class y at v under the masked ball loop."""
    return float(-np.log(softmax(ball_hidden(model, graph, v, mask, ball=ball))[y]))


def _row_loop(model, h, incidence, depth, mask, extra_message, at, rows=None, min_rows=1):
    """States after ``depth`` layers; layer l computes the leading ``rows[l]``
    rows (every row without ``rows``) in one product of at least
    ``min_rows`` rows."""
    for li in range(depth):
        weights = model.layers[li]
        last = li == model.depth - 1
        n = len(incidence) if rows is None else rows[li]
        agg = np.zeros((max(n, min_rows), weights.shape[0]))
        for i, pairs in enumerate(incidence[:n]):
            acc = h[i].copy() if model.self_loop else np.zeros(weights.shape[0])
            count = 1 if model.self_loop else 0
            for j, eid in pairs:
                acc += h[j] if mask is None else float(mask.get(eid, 1.0)) * h[j]
                count += 1
            if last and extra_message is not None and i == at:
                acc = acc + np.asarray(extra_message, dtype=float).reshape(-1)
                count += 1
            if model.mean_aggregate and count:
                acc = acc / count
            agg[i] = acc
        z = (agg @ weights)[:n]
        h = _package_activation(model.activation, z) if (not last or model.final_activation) else z
    return h


def reference_grad_weights_fd(model, graph, target, step, diameter=None, ball=None):
    """Finite-difference edge saliency by one masked ball loop per edge.

    This is how ``grad_weights_fd`` ran before its passes were batched: the
    unmasked pass, then one ``masked_loss`` per neighbourhood edge in id
    order, each on the target's ball through the per-row loop.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    if diameter is None:
        diameter = model.depth
    ball = target_ball(graph, target, max(diameter, model.depth), ball)
    probs = softmax(ball_hidden(model, graph, target, ball=ball))
    y = int(np.argmax(probs))
    base = float(-np.log(probs[y]))
    weights = {}
    for eid in neighborhood_edge_ids(graph, target, diameter, ball):
        shifted = masked_loss(model, graph, target, y, {eid: 1.0 - step}, ball)
        weights[eid] = abs(shifted - base) / step
    return weights


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


def reference_ranking(model, graph, target, pairs, strategy, eps=1e-9):
    """Rank (explanation, counterfactual) Subgraph pairs one object at a time.

    Every tree is scored by its own restricted pass; each pair gets its
    removed nodes by set difference, a proper-sub-tree check and its own
    ``cf_relevance``; ties are broken by (size, edge set, edge set) tuples
    and ranks, flags, the listing order and the pick come from quadratic
    counts and plain sorts. Returns (relevance, sim_ranks, rel_ranks,
    pareto, order, selected).
    """
    from moexp import cf_relevance, simulatability

    reference = forward(model, graph, target)

    def nu(sub):
        return simulatability(reference, restricted_forward(model, graph, target, sub), eps)

    relevance, scores, keys = [], [], []
    for expl, cf in pairs:
        assert set(cf.edge_set) < set(expl.edge_set), "counterfactual must be a proper sub-tree"
        removed = sorted(set(expl.node_set) - set(cf.node_set))
        relevance.append(cf_relevance(nu(expl), nu(cf), len(removed)))
        scores.append((nu(expl), abs(relevance[-1])))
        keys.append((len(expl.node_set), expl.edge_set, cf.edge_set))
    n = len(scores)
    sim_ranks = [1 + sum(t[0] > s[0] for t in scores) for s in scores]
    rel_ranks = [1 + sum(t[1] > s[1] for t in scores) for s in scores]
    sums = [a + b for a, b in zip(sim_ranks, rel_ranks)]
    order = sorted(range(n), key=lambda i: (sums[i], keys[i], i))
    selected = order[0]
    if strategy == "balanced":
        selected = min(range(n), key=lambda i: (abs(sim_ranks[i] - rel_ranks[i]), sums[i], keys[i], i))
    return relevance, sim_ranks, rel_ranks, pareto_oracle(scores), order, selected


def reference_document(result, graph, model, config, manifest) -> dict:
    """The explain document of one node as a dict, one dict per embedded pair.

    This is how ``cli.node_document`` built documents before it rendered
    ``top_pairs`` as text; ``json.dumps(doc, sort_keys=True, indent=2)`` of
    it is the text the writer must produce.
    """
    doc = {
        "schema": "moexp/1",
        "node": result.target,
        "method": result.method,
        "predicted_class": result.predicted_class,
        "full_distribution": [float(x) for x in result.full_distribution],
        "candidate_count": result.candidate_count,
        "pair_count": result.pair_count,
        "explanation": _candidate_block(
            result.explanation, result.explanation_distribution, result.explanation_simulatability, graph
        ),
        "manifest": manifest,
    }
    front = result.front
    if front is None:
        doc.update(
            counterfactual=None,
            removed_nodes=[],
            cf_relevance=None,
            abs_cf_relevance=None,
            rank_sum=None,
            sim_rank=None,
            cf_rank=None,
            on_front=None,
            front_size=0,
            confounders=None,
            top_pairs=[],
        )
        return doc
    enumeration, sims = result.scorer.enumeration, result.scorer.simulatability.tolist()
    subs = enumeration.subgraphs
    e, c, relevance = front.e.tolist(), front.c.tolist(), front.relevance.tolist()
    sim_ranks, rel_ranks, rank_sums, pareto = (
        a.tolist() for a in (front.sim_ranks, front.rel_ranks, front.rank_sums, front.pareto)
    )
    sel = front.selected
    removed = enumeration.removed_nodes(e[sel], c[sel])
    doc.update(
        counterfactual=_candidate_block(
            subs[c[sel]], result.scorer.distributions[c[sel]], sims[c[sel]], graph
        ),
        removed_nodes=removed,
        cf_relevance=relevance[sel],
        abs_cf_relevance=abs(relevance[sel]),
        rank_sum=rank_sums[sel],
        sim_rank=sim_ranks[sel],
        cf_rank=rel_ranks[sel],
        on_front=pareto[sel],
        front_size=front.front_size,
        confounders=sorted(confounder_set(graph, result.target, model.depth, removed, result.ball)),
    )
    top = []
    for i in front.order.tolist()[: top_count(config.top_percent, len(e))]:
        top.append(
            {
                "explanation_edge_ids": list(subs[e[i]].edge_set),
                "explanation_nodes": list(subs[e[i]].node_set),
                "counterfactual_edge_ids": list(subs[c[i]].edge_set),
                "removed_nodes": enumeration.removed_nodes(e[i], c[i]),
                "simulatability": sims[e[i]],
                "cf_relevance": relevance[i],
                "abs_cf_relevance": abs(relevance[i]),
                "sim_rank": sim_ranks[i],
                "cf_rank": rel_ranks[i],
                "rank_sum": rank_sums[i],
                "on_front": pareto[i],
            }
        )
    doc["top_pairs"] = top
    return doc


# One ``top_pairs`` entry as ``json.dumps(sort_keys=True, indent=2)`` writes it.
_PAIR = """    {
      "abs_cf_relevance": %s,
      "cf_rank": %d,
      "cf_relevance": %s,
      "counterfactual_edge_ids": %s,
      "explanation_edge_ids": %s,
      "explanation_nodes": %s,
      "on_front": %s,
      "rank_sum": %d,
      "removed_nodes": %s,
      "sim_rank": %d,
      "simulatability": %s
    }"""


def _ints(values) -> str:
    """An int list as ``json`` writes it as the value of a ``top_pairs`` entry's key."""
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, values)) + "\n      ]"


def template_top_pairs(result, config) -> str:
    """The ``top_pairs`` text of a document with a front, one ``%`` template
    per embedded pair: how ``cli.node_document`` rendered it before it
    assembled the entries from distinct-value texts."""
    front, scorer = result.front, result.scorer
    enumeration = scorer.enumeration
    subs = enumeration.subgraphs
    order = front.order[: top_count(config.top_percent, len(front.e))].tolist()
    kept = np.array(order, dtype=np.intp)
    es, cs = front.e[kept].tolist(), front.c[kept].tolist()
    rel_text = _floats(front.relevance[kept])
    explanations = list(set(es))
    sims = dict(zip(explanations, _floats(scorer.simulatability[explanations])))
    edge_ids = {j: _ints(subs[j].edge_set) for j in {*es, *cs}}
    nodes = {j: _ints(subs[j].node_set) for j in explanations}
    pairs = [
        _PAIR % (
            rel_text[k].lstrip("-"), front.rel_ranks[i], rel_text[k], edge_ids[cs[k]], edge_ids[es[k]],
            nodes[es[k]], "true" if front.pareto[i] else "false", front.rank_sums[i],
            _ints(enumeration.removed_nodes(es[k], cs[k])), front.sim_ranks[i], sims[es[k]],
        )
        for k, i in enumerate(order)
    ]
    return "[\n" + ",\n".join(pairs) + "\n  ]"


@dataclass(frozen=True, eq=False)
class ReferenceGraph:
    """A graph as tuples and a dict, the form ``Graph`` had before it held
    arrays; its fields are the contents of ``Graph``'s views."""

    node_count: int
    features: np.ndarray
    labels: tuple | None
    edges: tuple
    adjacency: tuple
    incidence: tuple
    edge_index: dict


def reference_graph(features, edges, labels=None) -> ReferenceGraph:
    """``build_graph`` one entry at a time: each edge is read with ``int`` and
    checked against the edges before it, then each node's incidence is sorted."""
    rows = [np.asarray(f, dtype=float).reshape(-1) for f in features]
    n = len(rows)
    if n == 0:
        raise ValueError("graph needs at least one node")
    dim = rows[0].size
    if dim == 0:
        raise ValueError("feature vectors must be non-empty")
    for i, r in enumerate(rows):
        if r.size != dim:
            raise ValueError(f"feature length mismatch at node {i}: {r.size} != {dim}")
    feats = np.vstack(rows)

    label_tuple = None
    if labels is not None:
        labels = list(labels)
        if len(labels) != n:
            raise ValueError(f"label count {len(labels)} != node count {n}")
        label_tuple = tuple(None if l is None else int(l) for l in labels)

    seen: set[tuple[int, int]] = set()
    for pair in edges:
        u, w = int(pair[0]), int(pair[1])
        if not (0 <= u < n and 0 <= w < n):
            raise ValueError(f"node id out of range in edge ({u}, {w})")
        if u == w:
            raise ValueError(f"self-loop at node {u} not allowed")
        key = (u, w) if u < w else (w, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {w})")
        seen.add(key)

    edge_list = tuple(sorted(seen))
    edge_index = {e: i for i, e in enumerate(edge_list)}
    incidence_lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, w) in enumerate(edge_list):
        incidence_lists[u].append((w, eid))
        incidence_lists[w].append((u, eid))
    for lst in incidence_lists:
        lst.sort()
    adjacency = tuple(tuple(nbr for nbr, _ in lst) for lst in incidence_lists)
    incidence = tuple(tuple(lst) for lst in incidence_lists)
    return ReferenceGraph(n, feats, label_tuple, edge_list, adjacency, incidence, edge_index)


def reference_parse_graph(doc) -> ReferenceGraph:
    """``io.parse_graph`` with every edge entry checked in a loop and the graph
    built by ``reference_graph``."""
    if not isinstance(doc, Mapping):
        raise FormatError("graph document must be an object")
    if doc.get("directed", False):
        raise FormatError("directed graphs are not supported")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise FormatError("nodes: expected a non-empty list")
    seen: dict[int, dict] = {}
    for i, node in enumerate(nodes):
        if not isinstance(node, Mapping):
            raise FormatError(f"nodes[{i}]: expected an object")
        if "id" not in node:
            raise FormatError(f"nodes[{i}]: missing 'id'")
        if "features" not in node:
            raise FormatError(f"nodes[{i}]: missing 'features'")
        nid = node["id"]
        if not isinstance(nid, int) or isinstance(nid, bool):
            raise FormatError(f"nodes[{i}]: id must be an integer")
        if nid in seen:
            raise FormatError(f"nodes[{i}]: duplicate id {nid}")
        seen[nid] = node
    n = len(seen)
    if set(seen) != set(range(n)):
        raise FormatError(f"node ids must be dense 0..{n - 1}")
    features = [seen[i]["features"] for i in range(n)]
    labels = None
    if any("label" in seen[i] for i in range(n)):
        labels = [seen[i].get("label") for i in range(n)]
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise FormatError("edges: expected a list")
    for i, pair in enumerate(edges):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise FormatError(f"edges[{i}]: expected a pair")
    try:
        graph = reference_graph(features, edges, labels)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    finite = np.isfinite(graph.features).all(axis=1)
    if not finite.all():
        i = next(i for i, node in enumerate(nodes) if not finite[node["id"]])
        raise FormatError(f"nodes[{i}]: features must be finite")
    return graph
