"""Candidate enumeration and the two explanation objectives.

A candidate explanation is a connected acyclic edge-induced subgraph (a
tree) containing the target node. Candidates are produced by a DFS that
grows one edge at a time inside the target's D-hop ball, using a forbidden
set so every tree is emitted exactly once, in an order fixed by canonical
edge ranks. Each candidate remembers the candidate it was grown from, and
counterfactuals are drawn from those growth ancestors (or, exhaustively,
from every enumerated sub-tree).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .gcn import Model, forward, softmax, trees_hidden
from .graph import Ball, Graph, Subgraph, target_ball

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
    """All candidates for one target, with growth parent links.

    ``parents[i]`` is the index of the candidate that candidate i was
    expanded from by a single edge (None for the single-node root).

    The candidate table holds every tree again as int arrays, padded with
    -1 to ``max_nodes`` nodes, for batched restricted passes:
    ``rows[i]`` lists candidate i's nodes as local ids of ``ball``, the
    target first and then each node in the order growth added it;
    ``depth[i]`` their hops from the target inside the tree; and
    ``slots[i, r]`` the positions in ``rows[i]`` of node r's tree
    neighbours, ascending by global node id, the order a pass sums them in.
    """

    target: int
    subgraphs: tuple
    parents: tuple
    ball: Ball
    rows: np.ndarray
    depth: np.ndarray
    slots: np.ndarray

    def __len__(self) -> int:
        return len(self.subgraphs)

    @functools.cached_property
    def index(self) -> dict:
        """Position of each candidate, keyed by its edge set."""
        return {s.edge_set: i for i, s in enumerate(self.subgraphs)}

    @functools.cached_property
    def sizes(self) -> np.ndarray:
        """Node count of each candidate."""
        return np.count_nonzero(self.rows >= 0, axis=1)

    @functools.cached_property
    def edge_set_rank(self) -> np.ndarray:
        """Position of each candidate when the edge sets are sorted."""
        return np.argsort(sorted(range(len(self.subgraphs)), key=lambda i: self.subgraphs[i].edge_set))

    def removed_nodes(self, i: int, j: int) -> list:
        """Nodes of candidate i that candidate j lacks, ascending."""
        kept = set(self.subgraphs[j].node_set)
        return [v for v in self.subgraphs[i].node_set if v not in kept]

    def counterfactuals(self, i: int, exhaustive: bool) -> list:
        """Indices of candidate i's counterfactuals, in pairing order.

        Default mode gives the proper growth ancestors, nearest first.
        Exhaustive mode gives every enumerated proper sub-tree, in
        ``itertools.combinations`` order of its edge set. Both drop the bare
        target for explanations of three or more nodes; it is only allowed
        for two-node explanations, where no other counterfactual exists.
        """
        sub = self.subgraphs[i]
        if exhaustive:
            combos = (c for r in range(len(sub.edge_set)) for c in itertools.combinations(sub.edge_set, r))
            out = [j for j in map(self.index.get, combos) if j is not None]
        else:
            out = []
            j = self.parents[i]
            while j is not None:
                out.append(j)
                j = self.parents[j]
        if len(sub.node_set) >= 3:
            out = [j for j in out if self.subgraphs[j].edge_set]
        return out


def enumerate_subgraphs(
    graph: Graph, target: int, config: EnumConfig = EnumConfig(), ball: Ball | None = None
) -> Enumeration:
    """Every tree containing the target within the config bounds, exactly once.

    Extension edges at each step are tried in canonical rank order; after a
    branch returns, its edge is forbidden for the remaining siblings, which
    is what guarantees uniqueness. An isolated target yields just the
    single-node candidate. The search reads only the target's ball
    (``ball``, of at least ``config.diameter`` hops, or a new one).
    """
    ball = target_ball(graph, target, config.diameter, ball)
    dist, erank, incidence, global_id = ball.distance, ball.edge_rank, ball.incidence, ball.nodes
    subgraphs: list[Subgraph] = []
    parents: list = []
    # Per candidate, flat: its parent (-1 for the root), the parent's row
    # the new edge leaves from, the node it adds and its size; the table is
    # built from these.
    growth: list[int] = []

    def expand(edge_ids: tuple, rows: tuple, parent, at: int, forbidden: frozenset):
        index = len(subgraphs)
        subgraphs.append(Subgraph(target, tuple(sorted(edge_ids)), tuple(sorted([global_id[r] for r in rows]))))
        parents.append(parent)
        growth.extend((-1 if parent is None else parent, at, rows[-1], len(rows)))
        if len(rows) >= config.max_nodes:
            return
        # An edge between two tree nodes, tree edges included, closes a cycle.
        extensions = []
        for r, node in enumerate(rows):
            for nbr, eid in incidence[node]:
                if eid in forbidden or nbr in rows or dist[nbr] > config.diameter:
                    continue
                extensions.append((erank[eid], eid, nbr, r))
        extensions.sort()
        blocked = set(forbidden)
        for _, eid, nbr, r in extensions:
            expand(edge_ids + (eid,), rows + (nbr,), index, r, frozenset(blocked))
            blocked.add(eid)

    expand((), (0,), None, 0, frozenset())
    rows, depth, slots = _candidate_table(ball, np.array(growth, dtype=np.intp).reshape(-1, 4), config.max_nodes)
    return Enumeration(target, tuple(subgraphs), tuple(parents), ball, rows, depth, slots)


def _candidate_table(ball: Ball, growth: np.ndarray, max_nodes: int):
    """(rows, depth, slots) of ``Enumeration`` from each candidate's
    (parent, row grown from, added node, size): a candidate of k nodes is
    its parent's arrays plus row k - 1, so one step per size builds them."""
    n = len(growth)
    parent, at, added, size = growth.T
    global_id = np.asarray(ball.nodes)
    rows = np.full((n, max_nodes), -1, dtype=np.int32)
    depth = np.full((n, max_nodes), -1, dtype=np.int32)
    slots = np.full((n, max_nodes, max_nodes - 1), -1, dtype=np.int32)
    rows[0, 0] = depth[0, 0] = 0
    width = np.arange(max_nodes - 1)
    for r in range(1, max_nodes):
        idx = np.flatnonzero(size == r + 1)
        if not idx.size:
            break
        p, a = parent[idx], at[idx]
        rows[idx], depth[idx], slots[idx] = rows[p], depth[p], slots[p]
        rows[idx, r] = added[idx]
        depth[idx, r] = depth[p, a] + 1
        slots[idx, r, 0] = a
        # Insert row r among row a's slots, which stay ascending by global
        # id with the padding last.
        old = slots[idx, a]
        ids = np.where(old >= 0, global_id[rows[idx[:, None], old]], np.iinfo(np.intp).max)
        place = np.count_nonzero(ids < global_id[added[idx]][:, None], axis=1)[:, None]
        moved = np.concatenate([old[:, :1], old[:, :-1]], axis=1)  # one place to the right
        slots[idx, a] = np.where(width < place, old, np.where(width == place, r, moved))
    return rows, depth, slots


def generate_pairs(enumeration: Enumeration, exhaustive: bool = False) -> np.ndarray:
    """(explanation, counterfactual) positions as an (m, 2) int array, one
    explanation after another in enumeration order (see
    ``Enumeration.counterfactuals``)."""
    pairs = [(i, j) for i in range(len(enumeration)) for j in enumeration.counterfactuals(i, exhaustive)]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


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


def cf_relevance(sim_explanation: float, sim_counterfactual: float, removed_count: int) -> float:
    """Simulatability drop per removed node."""
    if removed_count < 1:
        raise ValueError("removed_count must be at least 1")
    return (sim_explanation - sim_counterfactual) / removed_count


class CandidateScorer:
    """Scores of one enumeration's candidates against the full-graph prediction.

    The full-graph prediction is one pass on the target's ball (``ball``, or
    a new one of the model's depth in hops).

    Candidate i's restricted pass runs on its first request; its distribution
    and simulatability then stay in ``distributions[i]`` and
    ``simulatability[i]``. The candidates a call requests for the first time
    are scored together, one ``trees_hidden`` batch per tree size, from the
    enumeration's candidate table. ``forward_count`` counts the trees scored
    and ``hit_count`` the requests answered without a pass, so tests can
    verify sharing. ``reference_distribution`` overrides the distribution
    that candidates are compared against (used by perturbation studies).
    """

    def __init__(
        self,
        model: Model,
        graph: Graph,
        enumeration: Enumeration,
        epsilon: float = DEFAULT_EPSILON,
        reference_distribution=None,
        ball: Ball | None = None,
    ):
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1): {epsilon}")
        self.model = model
        self.graph = graph
        self.enumeration = enumeration
        self.target = enumeration.target
        self.epsilon = epsilon
        if reference_distribution is None:
            self.full_distribution = forward(model, graph, self.target, ball=ball)
        else:
            self.full_distribution = np.asarray(reference_distribution, dtype=float)
        self.distributions = np.zeros((len(enumeration), model.class_count))
        self.simulatability = np.zeros(len(enumeration))
        self._scored = np.zeros(len(enumeration), dtype=bool)
        self.forward_count = 0
        self.hit_count = 0

    def score(self, sub: Subgraph):
        """(distribution, simulatability) of one tree, by one restricted pass."""
        dist = forward(self.model, self.graph, self.target, restrict=sub)
        self.forward_count += 1
        return dist, simulatability(self.full_distribution, dist, self.epsilon)

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
            batch = fresh[sizes == k]
            hidden = trees_hidden(
                self.model, enumeration.ball.features, enumeration.rows[batch, :k],
                enumeration.depth[batch, :k], enumeration.slots[batch, :k, : k - 1], self.target,
            )
            self.distributions[batch] = softmax(hidden)
            self.simulatability[batch] = simulatability(self.full_distribution, self.distributions[batch], self.epsilon)
        self._scored[fresh] = True
