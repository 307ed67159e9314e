"""Candidate enumeration and the two explanation objectives.

A candidate explanation is a connected acyclic edge-induced subgraph (a
tree) containing the target node. Candidates are produced by a DFS that
grows one edge at a time inside the target's D-hop ball, carrying each
candidate's extension set so every tree is emitted exactly once, in an
order fixed by canonical edge ranks. The DFS records only how each
candidate grew; the candidates are held as one table of int arrays.
Counterfactuals are drawn from the growth ancestors (or, exhaustively,
from every enumerated sub-tree).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .gcn import Model, batch_runs, forward, softmax, trees_hidden
from .graph import Ball, canonical_order, require_hops

DEFAULT_EPSILON = 1e-9


@dataclass(frozen=True)
class EnumConfig:
    """Search bounds: at most ``max_nodes`` per candidate, all nodes within
    ``diameter`` hops of the target."""

    max_nodes: int = 4
    diameter: int = 2

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")
        if self.diameter < 1:
            raise ValueError("diameter must be at least 1")


@dataclass(frozen=True, eq=False)
class Enumeration:
    """All candidates for the target of ``ball``, as one table of int arrays.

    Candidate i was grown from candidate ``parent[i]`` by one edge; the
    single-node root is candidate 0, with parent -1, and parents come
    before their children. ``sizes[i]`` is candidate i's node count, and
    ``edge_ids[i]`` and ``node_ids[i]`` hold its global edge and node ids
    ascending, padded with -1 to ``max_nodes - 1`` and ``max_nodes``
    columns.

    For batched restricted passes, the table holds every tree again as
    local ids of ``ball``, padded with -1 to ``max_nodes`` nodes:
    ``rows[i]`` lists candidate i's nodes, the target first and then each
    node in the order growth added it; ``depth[i]`` their hops from the
    target inside the tree; and ``slots[i, r]`` the positions in
    ``rows[i]`` of node r's tree neighbours, ascending by global node id,
    the order a pass sums them in.

    ``config`` holds the bounds of the search that built the table: a
    growth table's are those its growth obeys. ``nodes(i)`` lists candidate
    i's node ids, and ``positions`` finds candidates by their edge sets.
    """

    ball: Ball
    config: EnumConfig
    parent: np.ndarray
    sizes: np.ndarray
    edge_ids: np.ndarray
    node_ids: np.ndarray
    rows: np.ndarray
    depth: np.ndarray
    slots: np.ndarray

    def __len__(self) -> int:
        return len(self.parent)

    def nodes(self, i: int) -> list:
        """Candidate i's node ids, ascending."""
        nodes = self.node_ids[i]
        return nodes[nodes >= 0].tolist()

    @functools.cached_property
    def edge_set_rank(self) -> np.ndarray:
        """Position of each candidate when the edge sets are sorted."""
        rank = np.empty(len(self), dtype=np.intp)
        rank[self._order] = np.arange(len(self))
        return rank

    @functools.cached_property
    def _order(self) -> np.ndarray:
        """The candidates in edge-set order: the order of their ``_keys``."""
        return np.argsort(_keys(self.edge_ids))

    @functools.cached_property
    def _sorted_keys(self) -> np.ndarray:
        """The candidates' ``_keys`` in edge-set order."""
        return _keys(self.edge_ids[self._order])

    def positions(self, edge_ids: np.ndarray) -> np.ndarray:
        """The position of each row's edge set, given as sorted ids padded
        with -1 to the table's width; -1 for a set that is no candidate."""
        keys, wanted = self._sorted_keys, _keys(edge_ids)
        at = np.minimum(keys.searchsorted(wanted), len(keys) - 1)
        return np.where(keys[at] == wanted, self._order[at], -1)

    def remainders(self, candidates: np.ndarray, dropped: np.ndarray) -> np.ndarray:
        """The position of each candidate's edge set without the edges
        ``dropped`` marks (a bool row over the table's edge columns per
        candidate); -1 where what remains is no candidate."""
        return self.positions(_sorted_rows(np.where(dropped, -1, self.edge_ids[candidates])))

    def removed_node_ids(self, e: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Per pair k, the nodes of candidate e[k] that candidate c[k]
        lacks, ascending and padded with -1."""
        nodes = self.node_ids[e]
        kept = (nodes[:, :, None] == self.node_ids[c][:, None, :]).any(axis=2)
        return _sorted_rows(np.where(kept, -1, nodes))

    def removed_nodes(self, i: int, j: int) -> list:
        """Nodes of candidate i that candidate j lacks, ascending."""
        removed = self.removed_node_ids(np.array([i]), np.array([j]))[0]
        return removed[removed >= 0].tolist()


def _keys(edge_ids: np.ndarray) -> np.ndarray:
    """One bytes key per row of sorted edge ids padded with -1, ordered as
    the rows sort: each id + 1 and the padding 0 as big-endian words. A
    zero word closes every key, so rows of no columns have keys too."""
    n, width = edge_ids.shape
    words = np.zeros((n, width + 1), dtype=">u8")
    words[:, :width] = edge_ids + 1
    return words.view(np.dtype((np.void, 8 * (width + 1)))).ravel()


def _sorted_rows(matrix: np.ndarray) -> np.ndarray:
    """Each row's ids ascending, with its -1 padding moved to the end."""
    top = np.iinfo(matrix.dtype).max
    out = np.sort(np.where(matrix < 0, top, matrix), axis=1)
    out[out == top] = -1
    return out


def enumerate_subgraphs(ball: Ball, config: EnumConfig) -> Enumeration:
    """Every tree containing the ball's target within the config bounds,
    exactly once.

    Each candidate carries its extension set: the edges that leave it, in
    canonical order (by the ball's ``edge_key``). Its children are grown
    along those edges in turn, and a child inherits only the later ones, so
    every tree is emitted once (the extension sets of ESU and of reverse
    search). The DFS records only each candidate's growth;
    ``Enumeration``'s table is built from those records. An isolated target
    yields just the single-node candidate. The search reads only the runs
    of the ball, which has at least ``config.diameter`` hops.
    """
    require_hops(ball, config.diameter)
    max_nodes, inner = config.max_nodes, ball.within[config.diameter]
    # A tree node lies within max_nodes - 1 hops of the target, and its
    # extensions within the diameter: (edge key, edge id, neighbour) each.
    stops = ball.indptr[: ball.within[min(config.diameter, max_nodes - 1)] + 1].tolist()
    keys, eids, nbrs = (a[: stops[-1]].tolist() for a in (ball.edge_key, ball.edge, ball.nbr))
    links = [
        sorted((keys[k], eids[k], nbrs[k]) for k in range(a, b) if nbrs[k] < inner) for a, b in zip(stops, stops[1:])
    ]
    # Per candidate, flat: its parent, the parent's row the new edge leaves
    # from, the node it adds, the edge and its node count.
    growth = [-1, 0, 0, -1, 1]
    if max_nodes > 1:
        _expand(growth, [0], links, max_nodes, 0, [(rank, eid, nbr, 0) for rank, eid, nbr in links[0]])
    return growth_table(ball, np.array(growth, dtype=np.intp).reshape(-1, 5), config)


def _expand(growth: list, rows: list, links: list, max_nodes: int, index: int, extensions: list) -> None:
    """``enumerate_subgraphs``'s DFS below candidate ``index``, whose nodes are ``rows``."""
    for k, (_, eid, nbr, at) in enumerate(extensions):
        child = len(growth) // 5
        growth.extend((index, at, nbr, eid, len(rows) + 1))
        if len(rows) + 1 < max_nodes:
            # An edge between two tree nodes closes a cycle.
            later = [x for x in extensions[k + 1 :] if x[2] != nbr]
            rows.append(nbr)
            new = [(rank, e, w, len(rows) - 1) for rank, e, w in links[nbr] if w not in rows]
            _expand(growth, rows, links, max_nodes, child, sorted(later + new) if new else later)
            rows.pop()


def growth_table(ball: Ball, growth: np.ndarray, config: EnumConfig) -> Enumeration:
    """The ``Enumeration`` of each candidate's (parent, row grown from,
    added node, added edge, node count) under the bounds ``config``: a
    candidate of k nodes is its parent's arrays plus row k - 1, so one step
    per size builds them. The DFS records every candidate, greedy growth
    (``baselines.grow_table``) one path."""
    n, max_nodes = len(growth), config.max_nodes
    parent, at, added, edge, size = np.ascontiguousarray(growth.T)
    global_id = np.asarray(ball.nodes)
    rows = np.full((n, max_nodes), -1, dtype=np.int32)
    depth = np.full((n, max_nodes), -1, dtype=np.int32)
    slots = np.full((n, max_nodes, max_nodes - 1), -1, dtype=np.int32)
    edges = np.full((n, max_nodes - 1), -1, dtype=np.intp)
    rows[0, 0] = depth[0, 0] = 0
    width = np.arange(max_nodes - 1)
    for r in range(1, max_nodes):
        idx = np.flatnonzero(size == r + 1)
        if not idx.size:
            break
        p, a = parent[idx], at[idx]
        rows[idx], depth[idx], slots[idx], edges[idx] = rows[p], depth[p], slots[p], edges[p]
        rows[idx, r] = added[idx]
        edges[idx, r - 1] = edge[idx]
        depth[idx, r] = depth[p, a] + 1
        slots[idx, r, 0] = a
        # Insert row r among row a's slots, which stay ascending by global
        # id with the padding last.
        old = slots[idx, a]
        ids = np.where(old >= 0, global_id[rows[idx[:, None], old]], np.iinfo(np.intp).max)
        place = np.count_nonzero(ids < global_id[added[idx]][:, None], axis=1)[:, None]
        moved = np.concatenate([old[:, :1], old[:, :-1]], axis=1)  # one place to the right
        slots[idx, a] = np.where(width < place, old, np.where(width == place, r, moved))
    node_ids = _sorted_rows(np.where(rows >= 0, global_id[rows], -1))
    return Enumeration(ball, config, parent, size, _sorted_rows(edges), node_ids, rows, depth, slots)


def _combinations(k: int, width: int) -> np.ndarray:
    """The proper subsets of k columns in ``itertools.combinations`` order,
    smallest first, one row each, padded with column k to ``width``."""
    subsets = [c for r in range(k) for c in itertools.combinations(range(k), r)]
    out = np.full((len(subsets), width), k, dtype=np.intp)
    for row, c in zip(out, subsets):
        row[: len(c)] = c
    return out


def counterfactual_pairs(enumeration: Enumeration, explanations: np.ndarray, exhaustive: bool) -> np.ndarray:
    """(explanation, counterfactual) positions as an (m, 2) int array for
    the ``explanations``, in their order, each followed by its
    counterfactuals in pairing order.

    Default mode gives the proper growth ancestors, nearest first: the
    parent array applied again and again. Exhaustive mode gives every
    enumerated proper sub-tree, in ``itertools.combinations`` order of its
    edge set, found by looking the subsets up in the table. Both drop the
    bare target (the root, position 0) for explanations of three or more
    nodes; it is only allowed for two-node explanations, where no other
    counterfactual exists.
    """
    width = enumeration.edge_ids.shape[1]
    # An exhaustive lookup holds 2**width - 1 subsets of width ids per explanation.
    runs = batch_runs(len(explanations), 2**width * width) if exhaustive else [(0, len(explanations))]
    pairs = []
    for lo, hi in runs:
        run = explanations[lo:hi]
        sizes = enumeration.sizes[run]
        if not exhaustive:
            above = np.append(enumeration.parent, -1)  # above[-1] is -1, the root's parent
            columns = [above[run]]
            for _ in range(width - 1):
                columns.append(above[columns[-1]])
            table = np.stack(columns, axis=1) if width else np.zeros((len(run), 0), dtype=np.intp)
        else:
            table = np.full((len(run), 2**width - 1), -1, dtype=np.intp)
            padded = np.pad(enumeration.edge_ids[run], ((0, 0), (0, 1)), constant_values=-1)
            for k in range(1, width + 1):
                idx = np.flatnonzero(sizes == k + 1)
                combos = _combinations(k, width)
                # Column k of a k-edge row is -1, so the padding reads -1.
                subsets = padded[idx[:, None, None], combos[None]]
                found = enumeration.positions(subsets.reshape(-1, width)).reshape(len(idx), len(combos))
                table[idx, : len(combos)] = found
        table[(table == 0) & (sizes >= 3)[:, None]] = -1
        # One row per explanation, its counterfactuals in order, -1 where
        # none: row-major nonzero lists the pairs in pairing order.
        row, column = np.nonzero(table >= 0)
        pairs.append(np.stack([run[row], table[row, column]], axis=1))
    return np.concatenate(pairs) if pairs else np.zeros((0, 2), dtype=np.intp)


def generate_pairs(enumeration: Enumeration, exhaustive: bool = False) -> np.ndarray:
    """(explanation, counterfactual) positions as an (m, 2) int array, one
    explanation after another in enumeration order (see
    ``counterfactual_pairs``)."""
    return counterfactual_pairs(enumeration, np.arange(len(enumeration)), exhaustive)


def simulatability(reference, candidate, epsilon: float = DEFAULT_EPSILON):
    """Negative symmetric KL divergence between two class distributions.

    Both distributions are smoothed toward uniform by ``epsilon`` before the
    divergence, so the value is finite even for saturated inputs. Always
    <= 0, and 0 exactly when the smoothed distributions coincide. The
    summation is arranged so swapping the arguments is a bitwise no-op.
    Either argument may be a 2-D stack of distributions, one per row; the
    result is then an array of one value per row, each the bits of the
    one-row call.
    """
    p, q = _distributions(reference), _distributions(candidate)
    if p.shape[-1] != q.shape[-1]:
        raise ValueError(f"distribution length mismatch: {p.shape[-1]} != {q.shape[-1]}")
    if epsilon:
        k = p.shape[-1]
        p = (1.0 - epsilon) * p + epsilon / k
        q = (1.0 - epsilon) * q + epsilon / k
    total = ((p - q) * (np.log(p) - np.log(q))).sum(axis=-1)
    value = -total + 0.0
    return value if value.ndim else float(value)


def _distributions(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 2 else x.reshape(-1)


class CandidateScorer:
    """Scores of one enumeration's candidates against the full-graph prediction.

    The full-graph prediction is one pass on the target's ball: the
    enumeration's ball when it has at least the model's depth in hops, or
    a new one of that depth.

    Candidate i's restricted pass runs on its first request; its distribution
    and simulatability then stay in ``distributions[i]`` and
    ``simulatability[i]``. The candidates a call requests for the first time
    are scored together, in the ``gcn.batch_runs`` of each tree size, from
    the enumeration's candidate table. ``forward_count`` counts the trees
    scored and ``hit_count`` the requests answered without a pass, so tests
    can verify sharing. ``reference_distribution`` replaces the distribution
    that candidates are compared against; ``model_distribution`` is the
    model's own pass, or None when a reference was given (``with_reference``
    keeps its source's).
    """

    def __init__(
        self, model: Model, enumeration: Enumeration, epsilon: float = DEFAULT_EPSILON, reference_distribution=None
    ):
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1): {epsilon}")
        self.model = model
        self.enumeration = enumeration
        self.epsilon = epsilon
        if reference_distribution is None:
            ball = enumeration.ball
            if ball.hops < model.depth:
                ball = canonical_order(ball.graph, ball.target, model.depth)
            self.model_distribution = self.full_distribution = forward(model, ball)
        else:
            self.model_distribution = None
            self.full_distribution = np.asarray(reference_distribution, dtype=float)
        self.distributions = np.zeros((len(enumeration), model.class_count))
        self.simulatability = np.zeros(len(enumeration))
        self._scored = np.zeros(len(enumeration), dtype=bool)
        self.forward_count = 0
        self.hit_count = 0

    def with_reference(self, distribution) -> CandidateScorer:
        """A scorer of the same table against ``distribution``, with this
        one's ``model_distribution``: a tree's restricted pass reads only the
        model and the tree. The trees scored here keep their distributions,
        and their simulatability is recomputed row by row, the bits of
        scoring them afresh; the new scorer's counts start at 0."""
        other = CandidateScorer(self.model, self.enumeration, self.epsilon, distribution)
        other.model_distribution = self.model_distribution
        scored = np.flatnonzero(self._scored)
        other.distributions[scored] = self.distributions[scored]
        other.simulatability[scored] = simulatability(other.full_distribution, other.distributions[scored], self.epsilon)
        other._scored[scored] = True
        return other

    def candidate(self, i: int) -> float:
        """Simulatability of candidate i."""
        self._request(np.array([i]))
        return float(self.simulatability[i])

    def pair(self, e: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Counterfactual relevance of each pair (e[k], c[k]) of candidate
        positions: the simulatability drop per removed node.

        Each pair requests both of its candidates, so the counts are those of
        scoring the pairs one after another.
        """
        self._request(np.concatenate([e, c]))
        sizes = self.enumeration.sizes
        return (self.simulatability[e] - self.simulatability[c]) / (sizes[e] - sizes[c])

    def _request(self, requested: np.ndarray) -> None:
        """Score the requested candidates not scored yet; count the rest as hits."""
        # A mark array and flatnonzero give np.unique's sorted positions
        # without importing numpy.ma, which np.unique does on first use.
        marked = np.zeros(len(self._scored), dtype=bool)
        marked[requested] = True
        fresh = np.flatnonzero(marked & ~self._scored)
        self.hit_count += requested.size - fresh.size
        self.forward_count += fresh.size
        enumeration = self.enumeration
        sizes = enumeration.sizes[fresh]
        for k in np.flatnonzero(np.bincount(sizes)):
            same = fresh[sizes == k]
            for lo, hi in batch_runs(same.size, k * self.model.max_width + 2 * (k - 1)):
                batch = same[lo:hi]
                self.distributions[batch] = softmax(trees_hidden(
                    self.model, enumeration.ball.features, enumeration.rows[batch, :k],
                    enumeration.depth[batch, :k], enumeration.slots[batch, :k, : k - 1], enumeration.ball.target,
                ))
                self.simulatability[batch] = simulatability(self.full_distribution, self.distributions[batch], self.epsilon)
        self._scored[fresh] = True
