"""Forward-only graph convolution over a target's ball or a restricted tree.

One routine runs the layers: ``layers_hidden``, on a batch of trees given
as message lists, one per neighbour slot. ``ball_hidden`` feeds it a pass
over a target's ball as a batch of one tree, or grad-fd's damped copies
of that tree as one batch; ``trees_hidden`` feeds it batches of restricted
trees. A node sums its messages in ascending neighbour id
order, and each layer is a stack of two-row products, so a tree's bits do
not depend on its batch and every pass agrees with the whole graph's.

Aggregation at every layer is a plain sum of the node's own state and the
states of its in-scope neighbors (no degree normalization; an optional mean
aggregator divides by the message count). The node's own contribution is
always included when ``self_loop`` is set and is never scaled.
The update is ``act(weights.T @ agg)``; by default the activation is skipped
at the last layer so the output feeds a softmax, but ``final_activation``
forces it on for models whose last layer is a plain structural equation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import Ball, require_hops

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
    # A logit far below the top one can overflow to -inf here, which
    # exp maps to exactly 0.
    with np.errstate(over="ignore"):
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
        for key in ("self_loop", "mean_aggregate", "final_activation"):
            value = getattr(self, key)
            if not isinstance(value, bool):
                raise ValueError(f"{key} must be true or false, got {value!r}")
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

    @property
    def max_width(self) -> int:
        return max(max(w.shape) for w in self.layers)


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
) -> np.ndarray:
    """Last-layer state of the target of each tree in a batch of same-size
    trees, before the softmax: one row per tree.

    Tree b's nodes are the rows ``rows[b]`` of ``features``, its target
    first; ``depth[b]`` holds their hops from the target inside the tree,
    and ``slots[b, i]`` the positions in ``rows[b]`` of node i's neighbours,
    ascending by global node id and padded with -1. The batch runs through
    ``layers_hidden``, one message list per slot.
    """
    count, k = rows.shape
    messages = []
    for column in slots.reshape(count * k, -1).T:
        at = np.flatnonzero(column >= 0)
        if not at.size:
            break  # slots are padded at the end, so no later slot is used
        # Neighbour slots as rows of the flattened batch.
        messages.append((at, column[at] + at // k * k, None))
    h = features[rows.reshape(-1)]
    return layers_hidden(model, h, depth.reshape(-1), messages, node, k)


def _ball_messages(ball: Ball, hops: int) -> tuple:
    """The messages of a pass that reads the ball nodes within ``hops``
    hops, as (node, neighbour, edge id, bounds): local ids and global edge
    ids, one slot after another and ascending by node within a slot, so
    ``np.split(column, bounds)`` gives one array per slot. Only the nodes
    within ``hops - 1`` hops receive messages, and slot s of a node is the
    s-th entry of its run of ``ball.nbr`` and ``ball.edge``.
    """
    stops = ball.indptr[: ball.within[hops - 1] + 1]
    node = np.arange(len(stops) - 1).repeat(np.diff(stops))
    slot = np.arange(len(node)) - stops[node]
    order = slot.argsort(kind="stable")
    return node[order], ball.nbr[order], ball.edge[order], np.flatnonzero(np.diff(slot[order])) + 1


# Most array entries one batch may hold: 2 MiB per float64 or intp array.
BATCH_ENTRIES = 1 << 18


def batch_runs(count: int, entries_each: int) -> list:
    """The consecutive (lo, hi) runs of ``count`` items of ``entries_each``
    array entries each: as many items as fit in ``BATCH_ENTRIES``, or one."""
    size = max(1, BATCH_ENTRIES // max(entries_each, 1))
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def layers_hidden(
    model: Model,
    h: np.ndarray,
    hops: np.ndarray,
    messages: list,
    node: int,
    tree_size: int,
    extra_message: np.ndarray | None = None,
) -> np.ndarray:
    """Last-layer state of each target in a batch of trees whose nodes are
    the rows of ``h``, before the softmax: one row per target.

    ``hops`` holds each row's hops from its tree's target, so the targets
    are the rows at 0, in order; a tree may have several, as the ball pass
    of ``node_embeddings`` has. ``messages`` lists one slot after another as
    (row, source, scale) arrays: each row adds ``h[source]``, times its
    ``scale`` when that is not None, and no row appears twice in a slot.
    ``extra_message`` joins each target's aggregation at the last layer.

    A node adds its neighbours to its own state slot by slot, as a pass
    over its tree alone does, so a -0.0 stays -0.0. Layer l computes only
    the rows within L - 1 - l hops of their target, the ones its output
    reads, so a node that cannot reach it never overflows the batch. Each
    layer is a stack of two-row products, with a zero row added to an odd
    count, or of one-row products when ``tree_size`` is 1: a row of a
    two-row product rounds the same whatever its partner row, so a tree
    gets the bits of a pass over it alone in any batch (NumPy multiplies a
    single row by another BLAS routine, so only a one-node tree has
    one-row products). An overflow or invalid operation raises
    ``ValueError`` naming ``node``.
    """
    _check_width(model, h)
    pair = min(2, tree_size)
    position = np.zeros(len(hops), dtype=np.intp)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for li, layer in enumerate(model.layers):
                last = li == model.depth - 1
                reach = model.depth - 1 - li
                live = np.flatnonzero(hops <= reach)
                n = live.size
                position[live] = np.arange(n)
                agg = np.zeros((-(-n // pair) * pair, layer.shape[0]))
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
                z = (agg.reshape(-1, pair, layer.shape[0]) @ layer).reshape(len(agg), -1)[:n]
                z = _activate(model.activation, z) if (not last or model.final_activation) else z
                if last:
                    return z  # the live rows are now the targets, one per tree
                h = np.zeros((len(hops), layer.shape[1]))
                h[live] = z
    except FloatingPointError as exc:
        raise ValueError(f"forward pass at node {node}: {exc}") from None


def ball_hidden(
    model: Model,
    ball: Ball,
    hops: int,
    extra_message: np.ndarray | None = None,
    damped: list | None = None,
    factor: float = 1.0,
) -> np.ndarray:
    """States after the model's layers of the ball nodes within ``hops -
    model.depth`` hops, in local order, each from its full neighbourhood.

    The pass reads the nodes within ``hops`` hops as one tree for
    ``layers_hidden``, whose targets are the output rows: a node's hops
    count from them, ``ball.distance`` shifted down by ``hops -
    model.depth``. Its tree size is the graph's node count, so its products
    have two rows, as the whole graph's have, unless the graph has one node.

    Given ``damped`` edge ids, one batch runs a copy of the pass per id,
    each copy's rows after the last one's: copy b scales both messages of
    edge ``damped[b]`` by ``factor``.
    """
    node, neighbour, edge, bounds = _ball_messages(ball, hops)
    k = ball.within[hops]
    shifted = np.maximum(np.asarray(ball.distance[:k]) - (hops - model.depth), 0)
    copies = 1 if damped is None else len(damped)
    offset = np.arange(copies) * k
    # Each message's row, source and scale in every copy, slot by slot.
    rows, sources = node[:, None] + offset, neighbour[:, None] + offset
    scale = None if damped is None else np.where(edge[:, None] == np.asarray(damped), factor, 1.0)
    messages = [
        (rows[at].ravel(), sources[at].ravel(), None if scale is None else scale[at].ravel())
        for at in np.split(np.arange(len(node)), bounds)
    ]
    h = np.tile(ball.features[:k], (copies, 1))
    return layers_hidden(
        model, h, np.tile(shifted, copies), messages, ball.target, ball.graph.node_count, extra_message
    )


def forward_hidden(model: Model, ball: Ball, *, extra_message: np.ndarray | None = None) -> np.ndarray:
    """Last-layer state of the ball's target before the softmax.

    The pass runs on the ball, of at least the model's depth in hops: an
    L-layer state of the target reads only nodes within L hops, and layer l
    computes only the nodes within L - 1 - l hops, each from its full
    neighborhood and in a product of its own rows, so the result is the
    whole graph's pass at the target bit for bit. ``extra_message`` is
    added to the target's aggregation at the last layer.
    A tree's pass runs in ``trees_hidden`` batches.
    """
    require_hops(ball, model.depth)
    return ball_hidden(model, ball, model.depth, extra_message)[0]


def forward(model: Model, ball: Ball, *, extra_message: np.ndarray | None = None) -> np.ndarray:
    """Class distribution at the ball's target under the full-graph forward pass."""
    return softmax(forward_hidden(model, ball, extra_message=extra_message))


def node_embeddings(model: Model, ball: Ball, depth_limit: int, hops: int | None = None) -> np.ndarray:
    """States after ``depth_limit`` layers of the pass that reads the ball
    nodes within ``hops`` hops (``ball.hops`` by default): one row per node
    within ``hops - depth_limit`` hops, in local order.

    These are the nodes whose ``depth_limit``-layer state reads only those
    nodes, so each row equals that node's state in the whole graph.
    ``depth_limit`` 0 returns their feature rows. Intermediate layers always
    apply the activation, matching what the next layer would consume.
    """
    hops = ball.hops if hops is None else hops
    if not 0 <= hops <= ball.hops:
        raise ValueError("hops out of range")
    if not 0 <= depth_limit <= min(model.depth, hops):
        raise ValueError("depth_limit out of range")
    if depth_limit == 0:
        _check_width(model, ball.features)
        return ball.features[: ball.within[hops]]
    final = model.final_activation or depth_limit < model.depth
    head = replace(model, layers=model.layers[:depth_limit], final_activation=final)
    return ball_hidden(head, ball, hops)
