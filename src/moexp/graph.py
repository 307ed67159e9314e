"""Immutable undirected attributed graphs with canonical orderings.

Nodes carry dense integer ids 0..n-1 and a fixed-length feature vector.
Edges are unordered pairs stored sorted as (lo, hi) and ordered
lexicographically, so an edge id (the position in the edge list) is
stable across runs and input permutations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DISCONNECTED = "disconnected"
CYCLIC = "cyclic"
MISSING_TARGET = "missing-target"


@dataclass(frozen=True, eq=False)
class Graph:
    """Canonical in-memory form of an undirected graph.

    ``adjacency[v]`` lists neighbors ascending; ``incidence[v]`` pairs each
    neighbor with the id of the connecting edge.
    """

    node_count: int
    features: np.ndarray
    labels: tuple | None
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    incidence: tuple[tuple[tuple[int, int], ...], ...]
    edge_index: dict = field(repr=False, default_factory=dict)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edge_id(self, u: int, w: int) -> int:
        key = (u, w) if u < w else (w, u)
        return self.edge_index[key]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.labels == other.labels
            and self.edges == other.edges
            and np.array_equal(self.features, other.features)
        )


@dataclass(frozen=True)
class Subgraph:
    """Edge-induced subgraph anchored at a target node.

    ``edge_set`` holds sorted edge ids of the parent graph; ``node_set``
    holds the endpoints of those edges plus the target, sorted. Two
    subgraphs are equal when their targets and edge sets are equal.
    """

    target: int
    edge_set: tuple[int, ...]
    node_set: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.node_set)


@dataclass(frozen=True)
class CanonicalOrder:
    """Deterministic node and edge ranks relative to a target.

    ``node_rank[v]`` is the BFS discovery position from the target, ties
    broken by ascending node id; unreachable nodes come last, ascending.
    ``edge_rank[e]`` orders edges by the sorted pair of endpoint ranks.
    """

    node_rank: tuple[int, ...]
    edge_rank: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Ball(CanonicalOrder):
    """The nodes within ``hops`` hops of a target and the edges between them.

    Local ids are canonical ranks: ``nodes[i]`` is the global id of the
    node of rank i, so the target is 0 and the nodes within r hops are the
    first ``within[r]``. ``node_rank`` maps a global node id to its local
    id, ``distance[i]`` is local node i's hop distance, and ``features``
    holds the nodes' feature rows in local order. ``incidence[i]`` lists
    (local neighbor, global edge id) pairs in the order of
    ``graph.incidence``, so a sum over it adds the same terms in the same
    order as over the graph; a node at exactly ``hops`` hops lists only its
    neighbors inside the ball. ``edge_rank`` maps the global id of each
    edge in the ball to its position among them, which orders them as the
    unbounded canonical order does, since ball nodes take its first ranks.
    """

    graph: Graph = field(repr=False)
    target: int
    hops: int
    nodes: tuple[int, ...]
    distance: tuple[int, ...]
    within: tuple[int, ...]
    incidence: tuple = field(repr=False)
    features: np.ndarray = field(repr=False)


def build_graph(features, edges: Iterable[Sequence[int]], labels=None) -> Graph:
    """Validate raw inputs and assemble a canonical Graph.

    Raises ValueError for ragged feature vectors, out-of-range node ids,
    self-loops, or duplicate edges (in either orientation), naming the first
    offending entry. An edge entry's first two items are read with ``int``.
    """
    feats = _feature_matrix(features)
    n = len(feats)
    label_tuple = None
    if labels is not None:
        labels = list(labels)
        if len(labels) != n:
            raise ValueError(f"label count {len(labels)} != node count {n}")
        label_tuple = tuple(None if l is None else int(l) for l in labels)

    lo, hi = _canonical_edges(edges, n)
    # Ids as Python ints in object arrays: every tuple below that holds a
    # node or edge id holds that id's one int object.
    node_id, edge_id = np.arange(n).astype(object), np.arange(len(lo)).astype(object)
    edge_list = tuple(zip(node_id[lo].tolist(), node_id[hi].tolist()))
    edge_index = dict(zip(edge_list, edge_id.tolist()))
    # Each edge is listed at both of its ends; a node's entries sort by
    # neighbour, and the nodes' runs follow each other in id order.
    ends, nbrs = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    # The keys are distinct, so any sort gives this order; "stable" is the
    # one _check_edges ran, which keeps a load to one sort routine's code.
    order = np.argsort(ends * n + nbrs, kind="stable")
    nbr_list = node_id[nbrs[order]].tolist()
    pairs = list(zip(nbr_list, np.tile(edge_id, 2)[order].tolist()))
    stops = np.bincount(ends, minlength=n).cumsum().tolist()
    spans = list(zip([0, *stops[:-1]], stops))
    adjacency = tuple(tuple(nbr_list[a:b]) for a, b in spans)
    incidence = tuple(tuple(pairs[a:b]) for a, b in spans)
    return Graph(n, feats, label_tuple, edge_list, adjacency, incidence, edge_index)


def _feature_matrix(features) -> np.ndarray:
    """One float row per node; a node's value is flattened into its row."""
    try:
        feats = np.array(features, dtype=float)
    except (TypeError, ValueError, OverflowError):
        feats = None
    if feats is not None and feats.ndim == 2 and feats.size:
        return feats
    # Not a plain non-empty matrix: read row by row, which names what is wrong.
    rows = [np.asarray(f, dtype=float).reshape(-1) for f in features]
    if not rows:
        raise ValueError("graph needs at least one node")
    dim = rows[0].size
    if dim == 0:
        raise ValueError("feature vectors must be non-empty")
    for i, r in enumerate(rows):
        if r.size != dim:
            raise ValueError(f"feature length mismatch at node {i}: {r.size} != {dim}")
    return np.vstack(rows)


def _canonical_edges(edges, n: int):
    """(lo, hi) endpoint arrays of the validated edges, sorted by (lo, hi).

    The entries are read as an int matrix when NumPy gives one; otherwise
    each entry is read with ``int``, and an entry that cannot be read is
    reported after the entries before it are checked.
    """
    try:
        raw = np.asarray(edges)
    except (TypeError, ValueError, OverflowError):
        raw = None
    if raw is not None and raw.dtype.kind in "bi" and raw.shape[1:] == (2,):
        return _check_edges(raw, raw.astype(np.int64), n)
    raw = []
    for pair in edges:
        try:
            raw.append((int(pair[0]), int(pair[1])))
        except Exception:
            _check_edges(raw, _in_range(raw, n), n)
            raise
    return _check_edges(raw, _in_range(raw, n), n)


def _in_range(raw: list, n: int) -> np.ndarray:
    """The (u, w) ints as an (m, 2) array, any id outside 0..n-1 as -1."""
    ids = [(u if 0 <= u < n else -1, w if 0 <= w < n else -1) for u, w in raw]
    return np.array(ids, dtype=np.int64).reshape(-1, 2)


def _check_edges(raw, ids: np.ndarray, n: int):
    """Raise for the first entry of ``ids`` that is out of range, a self-loop
    or a duplicate, quoting it from ``raw``; else return sorted (lo, hi)."""
    u, w = ids[:, 0], ids[:, 1]
    outside = (u < 0) | (u >= n) | (w < 0) | (w >= n)
    loop = u == w
    lo, hi = np.minimum(u, w), np.maximum(u, w)
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    # A key's later entries follow its first one in the stable order. Keys of
    # out-of-range entries are meaningless, but a valid entry that repeats
    # one comes after it, so the out-of-range entry is reported first.
    repeat = np.zeros(len(keys), dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    bad = outside | loop | repeat
    if bad.any():
        k = int(np.argmax(bad))
        a, b = int(raw[k][0]), int(raw[k][1])
        if outside[k]:
            raise ValueError(f"node id out of range in edge ({a}, {b})")
        if loop[k]:
            raise ValueError(f"self-loop at node {a} not allowed")
        raise ValueError(f"duplicate edge ({a}, {b})")
    return lo[order], hi[order]


def bfs_distances(graph: Graph, source: int) -> list:
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


def canonical_order(graph: Graph, target: int, hops: int | None = None) -> CanonicalOrder:
    """Rank nodes by BFS from ``target`` and edges by their endpoint ranks.

    With ``hops``, the BFS stops at that depth and the result is the
    target's ``Ball``, whose ranks cover only the ball's nodes and edges.
    """
    if not 0 <= target < graph.node_count:
        raise ValueError(f"node id out of range: {target}")
    if hops is not None:
        return _ball(graph, target, hops)
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


def _ball(graph: Graph, target: int, hops: int) -> Ball:
    if hops < 0:
        raise ValueError("hops must be non-negative")
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
    # Local ids are node ranks, so (lower, higher) local id is the edge's sort key.
    keyed = sorted((i, j, eid) for i, pairs in enumerate(incidence) for j, eid in pairs if i < j)
    edge_rank = {eid: r for r, (_, _, eid) in enumerate(keyed)}
    return Ball(
        rank, edge_rank, graph, target, hops, tuple(nodes), tuple(distance), tuple(within), incidence,
        graph.features[nodes],
    )


def target_ball(graph: Graph, target: int, hops: int, ball: Ball | None = None) -> Ball:
    """``ball`` when it is ``target``'s ball in ``graph`` with at least ``hops``
    hops; a new ``hops``-hop ball when ``ball`` is None."""
    if ball is None:
        return canonical_order(graph, target, hops)
    if ball.graph is not graph or ball.target != target or ball.hops < hops:
        raise ValueError(
            f"ball of node {ball.target} with {ball.hops} hops cannot serve node {target} at {hops} hops"
        )
    return ball


def l_hop_neighborhood(graph: Graph, v: int, hops: int, ball: Ball | None = None) -> set:
    """Nodes within ``hops`` of v, excluding v itself."""
    if hops < 1:
        raise ValueError("hops must be positive")
    ball = target_ball(graph, v, hops, ball)
    return set(ball.nodes[1:ball.within[hops]])


def make_subgraph(graph: Graph, target: int, edge_ids: Iterable[int]) -> Subgraph:
    """Build a Subgraph from parent-graph edge ids, deriving the node set."""
    if not 0 <= target < graph.node_count:
        raise ValueError(f"node id out of range: {target}")
    ids = sorted(set(int(e) for e in edge_ids))
    if ids and not (0 <= ids[0] and ids[-1] < len(graph.edges)):
        raise ValueError("edge id out of range")
    nodes = {target}
    for eid in ids:
        u, w = graph.edges[eid]
        nodes.add(u)
        nodes.add(w)
    return Subgraph(target, tuple(ids), tuple(sorted(nodes)))


def validate_subgraph(graph: Graph, sub: Subgraph):
    """Check the tree discipline; return None when valid.

    Returns one of ``missing-target``, ``disconnected``, ``cyclic``. A valid
    subgraph is connected, acyclic, and contains its target.
    """
    for eid in sub.edge_set:
        if not 0 <= eid < len(graph.edges):
            raise ValueError(f"edge id out of range: {eid}")
    nodes = {sub.target}
    adj: dict[int, list[int]] = {sub.target: []}
    for eid in sub.edge_set:
        u, w = graph.edges[eid]
        for x in (u, w):
            nodes.add(x)
            adj.setdefault(x, [])
        adj[u].append(w)
        adj[w].append(u)
    if sub.target not in sub.node_set:
        return MISSING_TARGET
    reached = {sub.target}
    queue = deque([sub.target])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if reached != nodes:
        return DISCONNECTED
    if len(sub.edge_set) != len(nodes) - 1:
        return CYCLIC
    return None
