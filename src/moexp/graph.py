"""Immutable undirected attributed graphs with canonical orderings.

Nodes carry dense integer ids 0..n-1 and a fixed-length feature vector.
Edges are unordered pairs stored sorted as (lo, hi) and ordered
lexicographically, so an edge id (the position in the edge list) is
stable across runs and input permutations.
"""

from __future__ import annotations

import functools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DISCONNECTED = "disconnected"
CYCLIC = "cyclic"
MISSING_TARGET = "missing-target"


@dataclass(frozen=True, eq=False)
class Graph:
    """Canonical in-memory form of an undirected graph, held as NumPy arrays.

    Edge e joins ``lo[e] < hi[e]``, and the edges are sorted by (lo, hi).
    Node v's incidence is the run ``indptr[v]:indptr[v + 1]`` of
    ``nbr_node``, its neighbours ascending, and of ``nbr_edge``, the ids of
    the edges to them. These id arrays are read-only.

    ``edges``, ``adjacency``, ``incidence`` and ``edge_index`` give the same
    ids as Python tuples and a dict: ``adjacency[v]`` lists v's neighbours
    ascending, ``incidence[v]`` pairs each with the id of the connecting
    edge, and ``edge_index`` maps (lo, hi) to the edge id. Each view is
    built on first use and kept; no per-node stage reads them.
    """

    node_count: int
    features: np.ndarray
    labels: tuple | None
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    nbr_node: np.ndarray = field(repr=False)
    nbr_edge: np.ndarray = field(repr=False)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def edge_count(self) -> int:
        return len(self.lo)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def edge_id(self, u: int, w: int) -> int:
        """Id of the edge between u and w; ``KeyError`` when there is none."""
        a, b = (u, w) if u < w else (w, u)
        if 0 <= a and b < self.node_count:
            start, stop = self.indptr[a], self.indptr[a + 1]
            i = start + int(np.searchsorted(self.nbr_node[start:stop], b))
            if i < stop and self.nbr_node[i] == b:
                return int(self.nbr_edge[i])
        raise KeyError((a, b))

    def endpoints(self, ids) -> list:
        """The (lo, hi) pair of each edge of ``ids``, as Python ints."""
        ids = np.asarray(ids, dtype=np.intp)
        return list(zip(self.lo[ids].tolist(), self.hi[ids].tolist()))

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.lo.tolist(), self.hi.tolist()))

    @functools.cached_property
    def edge_index(self) -> dict:
        return dict(zip(self.edges, range(self.edge_count)))

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._per_node(self.nbr_node.tolist())

    @functools.cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self._per_node(list(zip(self.nbr_node.tolist(), self.nbr_edge.tolist())))

    @functools.cached_property
    def _scratch(self) -> threading.local:
        """Per thread, an array of -1s, one per node: a ball writes its
        nodes' local ids into it and puts the -1s back, so mapping the ball's
        neighbour ids to local ids is one gather, and no ball allocates an
        array the size of the graph. Threads of a ``--jobs`` run each get
        their own."""
        return threading.local()

    def _per_node(self, items: list) -> tuple:
        """``items``, one per CSR entry, as one tuple per node."""
        stops = self.indptr.tolist()
        return tuple(tuple(items[a:b]) for a, b in zip(stops, stops[1:]))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.labels == other.labels
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
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


@dataclass(frozen=True, eq=False)
class Ball:
    """The nodes within ``hops`` hops of a target and the edges between them.

    Local ids are canonical ranks: ``nodes[i]`` is the global id of the
    node of rank i, its BFS discovery position from the target with ties
    broken by ascending node id, so the target is 0 and the nodes within r
    hops are the first ``within[r]``. ``node_rank`` maps a global node id
    to its local id, ``distance[i]`` is local node i's hop distance, and
    ``features`` holds the nodes' feature rows in local order.
    ``incidence[i]`` lists (local neighbor, global edge id) pairs in the
    order of the graph's incidence run, ascending by global neighbor id, so
    a sum over it adds the same terms in the same order as over the graph;
    a node at exactly ``hops`` hops lists only its neighbors inside the
    ball. ``edge_rank`` maps the global id of each edge in the ball to its
    position among them by the sorted pair of endpoint ranks, which orders
    them as the canonical order of the whole graph does, since ball nodes
    take its first ranks.
    """

    node_rank: dict
    edge_rank: dict
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
    # Each edge is listed at both of its ends; a node's entries sort by
    # neighbour, and the nodes' runs follow each other in id order.
    ends, nbrs = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    # The keys are distinct, so any sort gives this order; "stable" is the
    # one _check_edges ran, which keeps a load to one sort routine's code.
    order = np.argsort(ends * n + nbrs, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    arrays = (lo, hi, indptr, nbrs[order], np.tile(np.arange(len(lo)), 2)[order])
    for a in arrays:
        a.flags.writeable = False
    return Graph(n, feats, label_tuple, *arrays)


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


def canonical_order(graph: Graph, target: int, hops: int) -> Ball:
    """The target's ``Ball`` of ``hops`` hops: one BFS that stops at that
    depth, with canonical ranks for the ball's nodes and edges."""
    if not 0 <= target < graph.node_count:
        raise ValueError(f"node id out of range: {target}")
    if hops < 0:
        raise ValueError("hops must be non-negative")
    # The array work below calls ndarray methods, not their ``np.``
    # wrappers, whose Python frames add up over the few dozen calls of a ball.
    nodes, distance, within = [target], [0], [1]
    rank = {target: 0}
    frontier = [target]
    for d in range(1, hops + 1):
        if frontier:
            at, _ = _run_positions(graph.indptr, np.array(frontier, dtype=np.intp))
            frontier = sorted(set(graph.nbr_node[at].tolist()).difference(rank))
            rank.update(zip(frontier, range(len(nodes), len(nodes) + len(frontier))))
            nodes += frontier
            distance += [d] * len(frontier)
        within.append(len(nodes))
    ids = np.array(nodes, dtype=np.intp)
    at, counts = _run_positions(graph.indptr, ids)
    scratch = graph._scratch
    local_ids = getattr(scratch, "local_ids", None)
    if local_ids is None:
        local_ids = scratch.local_ids = np.full(graph.node_count, -1, dtype=np.intp)
    local_ids[ids] = np.arange(len(ids))
    try:
        local = local_ids[graph.nbr_node[at]]
    finally:
        local_ids[ids] = -1
    keep = (local >= 0).nonzero()[0]  # a neighbour outside the ball reads -1
    owner = np.arange(len(ids)).repeat(counts)[keep]
    local, eid = local[keep], graph.nbr_edge[at[keep]]
    stops = owner.searchsorted(np.arange(1, len(ids) + 1)).tolist()
    pairs = list(zip(local.tolist(), eid.tolist()))
    incidence = tuple(tuple(pairs[a:b]) for a, b in zip([0, *stops[:-1]], stops))
    # Local ids are node ranks, so (lower, higher) local id is the edge's sort key.
    ahead = (local > owner).nonzero()[0]
    keyed = eid[ahead[(owner[ahead] * len(ids) + local[ahead]).argsort()]]
    edge_rank = dict(zip(keyed.tolist(), range(len(keyed))))
    return Ball(
        rank, edge_rank, graph, target, hops, tuple(nodes), tuple(distance), tuple(within), incidence,
        graph.features[ids],
    )


def _run_positions(indptr: np.ndarray, nodes: np.ndarray):
    """Positions in the CSR arrays of the incidence runs of ``nodes``, one
    run after another, and the length of each run. ``nodes`` is not empty."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    ends = counts.cumsum()
    return (starts - ends + counts).repeat(counts) + np.arange(ends[-1]), counts


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
    if ids and not (0 <= ids[0] and ids[-1] < graph.edge_count):
        raise ValueError("edge id out of range")
    nodes = {target, *(x for pair in graph.endpoints(ids) for x in pair)}
    return Subgraph(target, tuple(ids), tuple(sorted(nodes)))


def validate_subgraph(graph: Graph, sub: Subgraph):
    """Check the tree discipline; return None when valid.

    Returns one of ``missing-target``, ``disconnected``, ``cyclic``. A valid
    subgraph is connected, acyclic, and contains its target.
    """
    for eid in sub.edge_set:
        if not 0 <= eid < graph.edge_count:
            raise ValueError(f"edge id out of range: {eid}")
    nodes = {sub.target}
    adj: dict[int, list[int]] = {sub.target: []}
    for u, w in graph.endpoints(sub.edge_set):
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
