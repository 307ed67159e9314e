"""Forward-only graph convolution with subgraph restriction and edge masks.

Two routines run the layers: ``_propagate`` on a target's ball, and
``layers_hidden`` on a batch of trees given as message lists, one per
neighbour slot. ``trees_hidden`` feeds it batches of restricted trees;
grad-fd's masked passes, whose trees are copies of the ball, feed it
directly. Both sum a node's messages in ascending neighbour id order, so
they agree bit for bit.

Aggregation at every layer is a plain sum of the node's own state and the
states of its in-scope neighbors (no degree normalization; an optional mean
aggregator divides by the message count). The node's own contribution is
always included when ``self_loop`` is set and is never subject to masking.
The update is ``act(weights.T @ agg)``; by default the activation is skipped
at the last layer so the output feeds a softmax, but ``final_activation``
forces it on for models whose last layer is a plain structural equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .graph import Ball, Graph, Subgraph, target_ball

ACTIVATIONS = ("relu", "sigmoid", "identity")


def _activate(name: str, x: np.ndarray) -> np.ndarray:
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


def softmax(logits) -> np.ndarray:
    """Stable softmax; output entries are strictly positive and sum to one.

    A 2-D stack of logits gets one softmax per row, each the bits of the
    one-row call."""
    z = np.asarray(logits, dtype=float)
    if z.ndim != 2:
        z = z.reshape(-1)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class Model:
    """Stack of dense layer weights for the graph convolution.

    ``layers[l]`` has shape (d_in, d_out); consecutive shapes must chain.
    The output width of the last layer is the class count.
    """

    layers: tuple
    activation: str = "relu"
    self_loop: bool = True
    mean_aggregate: bool = False
    final_activation: bool = False

    def __post_init__(self):
        mats = tuple(np.asarray(w, dtype=float) for w in self.layers)
        if not mats:
            raise ValueError("at least one layer required")
        for i, w in enumerate(mats):
            if w.ndim != 2:
                raise ValueError(f"layer {i} must be a matrix, got shape {w.shape}")
        for i in range(1, len(mats)):
            if mats[i - 1].shape[1] != mats[i].shape[0]:
                raise ValueError(
                    f"layer dimension mismatch: layer {i - 1} outputs "
                    f"{mats[i - 1].shape[1]} but layer {i} expects {mats[i].shape[0]}"
                )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation: {self.activation!r}")
        object.__setattr__(self, "layers", mats)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return int(self.layers[0].shape[0])

    @property
    def class_count(self) -> int:
        return int(self.layers[-1].shape[1])


def load_weights(doc: Mapping) -> Model:
    """Build a Model from its dictionary form.

    Expected shape::

        {"activation": "relu", "self_loop": true,
         "layers": [{"rows": r, "cols": c, "data": [... r*c row-major ...]}]}

    Optional keys ``mean_aggregate`` and ``final_activation`` default to
    false. Classification use requires at least two output classes.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("weights document must be an object")
    try:
        raw_layers = doc["layers"]
        activation = doc["activation"]
    except KeyError as exc:
        raise ValueError(f"weights document missing key: {exc.args[0]}") from None
    mats = []
    for i, layer in enumerate(raw_layers):
        try:
            rows, cols, data = int(layer["rows"]), int(layer["cols"]), layer["data"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"layers[{i}]: malformed entry ({exc})") from None
        if len(data) != rows * cols:
            raise ValueError(f"layers[{i}]: data length {len(data)} != rows*cols {rows * cols}")
        mats.append(np.asarray(data, dtype=float).reshape(rows, cols))
        if not np.isfinite(mats[-1]).all():
            raise ValueError(f"layers[{i}]: weights must be finite")
    model = Model(
        layers=tuple(mats),
        activation=str(activation),
        self_loop=bool(doc.get("self_loop", True)),
        mean_aggregate=bool(doc.get("mean_aggregate", False)),
        final_activation=bool(doc.get("final_activation", False)),
    )
    if model.class_count < 2:
        raise ValueError("class count must be at least 2")
    return model


def _check_mask(mask) -> None:
    for eid, w in mask.items():
        if not 0.0 <= float(w) <= 1.0:
            raise ValueError(f"mask weight out of range for edge {eid}: {w}")


def _propagate(model: Model, h: np.ndarray, incidence, depth: int, rows, mask=None, extra_message=None, min_rows=1):
    """States after the first ``depth`` layers, starting from the rows of ``h``.

    ``incidence[i]`` lists (neighbor row, parent-graph edge id) pairs of row
    i. Layer li computes the leading ``rows[li]`` rows (each of them reads
    only rows that the layer before computed). ``mask`` scales messages by
    edge id; ``extra_message`` joins row 0's aggregation at the model's last
    layer. A layer's product gets zero rows appended up to ``min_rows``:
    NumPy multiplies a single row by a different BLAS routine than a matrix
    of several, whose rounding can differ. An overflow or invalid operation
    raises ``FloatingPointError`` instead of leaving inf or NaN.
    """
    _check_width(model, h)
    with np.errstate(over="raise", invalid="raise"):
        for li in range(depth):
            weights = model.layers[li]
            last = li == model.depth - 1
            n = rows[li]
            agg = np.zeros((max(n, min_rows), weights.shape[0]))
            for i in range(n):
                if model.self_loop:
                    acc = h[i].copy()
                    count = 1
                else:
                    acc = np.zeros(weights.shape[0])
                    count = 0
                for j, eid in incidence[i]:
                    acc += h[j] if mask is None else float(mask.get(eid, 1.0)) * h[j]
                    count += 1
                if last and extra_message is not None and i == 0:
                    acc = acc + np.asarray(extra_message, dtype=float).reshape(-1)
                    count += 1
                if model.mean_aggregate and count:
                    acc = acc / count
                agg[i] = acc
            z = (agg @ weights)[:n]
            h = _activate(model.activation, z) if (not last or model.final_activation) else z
    return h


def _check_width(model: Model, features: np.ndarray) -> None:
    if features.shape[1] != model.input_dim:
        raise ValueError(
            f"shape error: features have dim {features.shape[1]}, "
            f"first layer expects {model.input_dim}"
        )


def trees_hidden(
    model: Model,
    features: np.ndarray,
    rows: np.ndarray,
    depth: np.ndarray,
    slots: np.ndarray,
    node: int,
    weights: np.ndarray | None = None,
    extra_message: np.ndarray | None = None,
) -> np.ndarray:
    """Last-layer state of the target of each tree in a batch of same-size
    trees, before the softmax: one row per tree.

    Tree b's nodes are the rows ``rows[b]`` of ``features``, its target
    first; ``depth[b]`` holds their hops from the target inside the tree,
    and ``slots[b, i]`` the positions in ``rows[b]`` of node i's neighbours,
    ascending by global node id and padded with -1. ``weights[b, i, s]``,
    when given, scales the message of slot s (an edge mask);
    ``extra_message`` joins each target's aggregation at the last layer.
    The batch runs through ``layers_hidden``, one message list per slot.
    """
    count, k = rows.shape
    flat = slots.reshape(count * k, -1)
    if weights is not None:
        weights = weights.reshape(count * k, -1)
    messages = []
    for s, column in enumerate(flat.T):
        at = np.flatnonzero(column >= 0)
        if not at.size:
            break  # slots are padded at the end, so no later slot is used
        # Neighbour slots as rows of the flattened batch.
        source = column[at] + at // k * k
        messages.append((at, source, None if weights is None else weights[at, s]))
    h = features[rows.reshape(-1)]
    return layers_hidden(model, h, depth.reshape(-1), messages, node, k, extra_message)


def layers_hidden(
    model: Model,
    h: np.ndarray,
    hops: np.ndarray,
    messages: list,
    node: int,
    tree_size: int,
    extra_message: np.ndarray | None = None,
    tree_products: bool = False,
) -> np.ndarray:
    """Last-layer state of each target in a batch of trees whose nodes are
    the rows of ``h``, before the softmax: one row per tree.

    ``hops`` holds each row's hops from its tree's target, so the targets
    are the rows at 0, in order. ``messages`` lists one slot after another
    as (row, source, scale) arrays: each row adds ``h[source]``, times its
    ``scale`` when that is not None, and no row appears twice in a slot.
    ``extra_message`` joins each target's aggregation at the last layer.

    A node adds its neighbours to its own state slot by slot, as a pass
    over its tree alone does, so a -0.0 stays -0.0. Layer l computes only
    the rows within L - 1 - l hops of their target, the ones its output
    reads, so a node that cannot reach it never overflows the batch. Each
    layer is one product over the batch, padded to two rows unless the
    trees have one node (``tree_size``; see ``_propagate``). For some layer
    shapes a product's rounding depends on its row count, so a batch can
    round a tree differently from a pass over it alone. ``tree_products``,
    for batches whose trees all have the same number of rows at each
    layer, makes each product a stack of one padded product per tree,
    which gives every tree exactly the bits of a pass over it alone. An
    overflow or invalid operation raises ``ValueError`` naming ``node``.
    """
    _check_width(model, h)
    trees = np.count_nonzero(hops == 0)
    position = np.zeros(len(hops), dtype=np.intp)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for li, layer in enumerate(model.layers):
                last = li == model.depth - 1
                reach = model.depth - 1 - li
                live = np.flatnonzero(hops <= reach)
                n = live.size
                position[live] = np.arange(n)
                agg = np.zeros((max(n, min(2, tree_size)), layer.shape[0]))
                count = np.full(n, int(model.self_loop))
                if model.self_loop:
                    agg[:n] = h[live]
                for row, source, scale in messages:
                    keep = np.flatnonzero(hops[row] <= reach)
                    at = position[row[keep]]
                    if scale is None:
                        agg[at] += h[source[keep]]
                    else:
                        agg[at] += scale[keep][:, None] * h[source[keep]]
                    count[at] += 1
                if last and extra_message is not None:
                    agg[:n] += np.asarray(extra_message, dtype=float).reshape(-1)
                    count += 1
                if model.mean_aggregate:
                    np.divide(agg[:n], count[:, None], out=agg[:n], where=count[:, None] > 0)
                if tree_products:
                    per = n // trees  # the same for every tree
                    stack = np.zeros((trees, max(per, min(2, tree_size)), layer.shape[0]))
                    stack[:, :per] = agg[:n].reshape(trees, per, -1)
                    z = (stack @ layer)[:, :per].reshape(n, -1)
                else:
                    z = (agg @ layer)[:n]
                z = _activate(model.activation, z) if (not last or model.final_activation) else z
                if last:
                    return z  # the live rows are now the targets, one per tree
                h = np.zeros((len(hops), layer.shape[1]))
                h[live] = z
    except FloatingPointError as exc:
        raise ValueError(f"forward pass at node {node}: {exc}") from None


def _tree_table(graph: Graph, sub: Subgraph, mask: Mapping | None):
    """``sub`` as a one-tree batch for ``trees_hidden``: (rows, depth,
    slots, weights), with global node ids as rows, the target first and
    then ascending, and each slot's ``mask`` weight (None without a mask).
    A node that the target cannot reach through ``sub`` gets a depth beyond
    every layer, so no layer computes it."""
    nodes = [sub.target] + [u for u in sub.node_set if u != sub.target]
    local = {u: i for i, u in enumerate(nodes)}
    adjacent: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for eid in sub.edge_set:
        a, b = graph.edges[eid]
        adjacent[local[a]].append((b, eid))
        adjacent[local[b]].append((a, eid))
    k = len(nodes)
    slots = np.full((k, k - 1), -1)
    weights = None if mask is None else np.ones((k, k - 1))
    for i, pairs in enumerate(adjacent):
        pairs.sort()
        for s, (u, eid) in enumerate(pairs):
            slots[i, s] = local[u]
            if mask is not None:
                weights[i, s] = float(mask.get(eid, 1.0))
    depth = np.full(k, np.iinfo(np.intp).max)
    depth[0] = 0
    queue = [0]
    for i in queue:
        for j in slots[i, : len(adjacent[i])]:
            if depth[j] > depth[i] + 1:
                depth[j] = depth[i] + 1
                queue.append(j)
    return np.array([nodes]), depth[None], slots[None], None if mask is None else weights[None]


def forward_hidden(
    model: Model,
    graph: Graph,
    v: int,
    restrict: Subgraph | None = None,
    mask: Mapping | None = None,
    extra_message: np.ndarray | None = None,
    ball: Ball | None = None,
) -> np.ndarray:
    """Last-layer state of node v before the softmax.

    ``restrict`` limits both the node scope and the usable edges to an
    edge-induced subgraph whose target must be v; nodes outside it
    contribute nothing. Such a pass runs ``trees_hidden`` on the one-tree
    batch of ``_tree_table``. ``mask`` scales messages per parent-graph edge
    id (default weight 1; the self contribution is never masked).
    ``extra_message`` is added to v's aggregation at the last layer.

    Without ``restrict`` the pass runs on v's ball (``ball``, of at least
    the model's depth in hops, or a new one): an L-layer state of v reads
    only nodes within L hops, and layer l computes only the nodes within
    L - l hops, each from its full neighborhood, so the result is the
    whole graph's pass at v.
    """
    if not 0 <= v < graph.node_count:
        raise ValueError(f"node id out of range: {v}")
    if restrict is not None and restrict.target != v:
        raise ValueError("target not in subgraph: restriction is anchored elsewhere")
    if mask:
        _check_mask(mask)

    if restrict is not None:
        rows, depth, slots, weights = _tree_table(graph, restrict, mask)
        return trees_hidden(model, graph.features, rows, depth, slots, v, weights, extra_message)[0]
    ball = target_ball(graph, v, model.depth, ball)
    rows = [ball.within[model.depth - 1 - li] for li in range(model.depth)]
    try:
        h = _propagate(
            model, ball.features, ball.incidence, model.depth, rows, mask, extra_message, min(2, graph.node_count)
        )
    except FloatingPointError as exc:
        raise ValueError(f"forward pass at node {v}: {exc}") from None
    return h[0].copy()


def forward(
    model: Model,
    graph: Graph,
    v: int,
    restrict: Subgraph | None = None,
    mask: Mapping | None = None,
    extra_message: np.ndarray | None = None,
    ball: Ball | None = None,
) -> np.ndarray:
    """Class distribution at node v under the (possibly restricted) forward pass."""
    return softmax(forward_hidden(model, graph, v, restrict, mask, extra_message, ball))


def node_embeddings(model: Model, ball: Ball, depth_limit: int) -> np.ndarray:
    """States after ``depth_limit`` layers of the unmasked pass, one row per
    ball node within ``ball.hops - depth_limit`` hops, in local order.

    These are the nodes whose ``depth_limit``-layer state reads only the
    ball, so each row equals that node's state in the whole graph.
    ``depth_limit`` 0 returns the ball's features. Intermediate layers always
    apply the activation, matching what the next layer would consume.
    """
    if not 0 <= depth_limit <= min(model.depth, ball.hops):
        raise ValueError("depth_limit out of range")
    rows = [ball.within[ball.hops - 1 - li] for li in range(depth_limit)]
    try:
        return _propagate(
            model, ball.features, ball.incidence, depth_limit, rows, min_rows=min(2, ball.graph.node_count)
        )
    except FloatingPointError as exc:
        raise ValueError(f"forward pass: {exc}") from None


def masked_loss(model: Model, graph: Graph, v: int, y: int, mask: Mapping | None, ball: Ball | None = None) -> float:
    """Negative log-probability of class y at v under the masked forward pass."""
    probs = forward(model, graph, v, mask=mask, ball=ball)
    if not 0 <= y < probs.size:
        raise ValueError(f"class index out of range: {y}")
    return float(-np.log(probs[y]))
