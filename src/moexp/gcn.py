"""Forward-only graph convolution with subgraph restriction and edge masks.

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

from .graph import Graph, Subgraph

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
    """Stable softmax; output entries are strictly positive and sum to one."""
    z = np.asarray(logits, dtype=float).reshape(-1)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


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


def _propagate(model: Model, h: np.ndarray, incidence, depth: int, mask=None, extra_message=None, at=None):
    """States of every row of ``h`` after the first ``depth`` layers.

    ``incidence[i]`` lists (neighbor row, parent-graph edge id) pairs of row
    i. ``mask`` scales messages by edge id; ``extra_message`` joins row
    ``at``'s aggregation at the model's last layer. An overflow or invalid
    operation raises ``FloatingPointError`` instead of leaving inf or NaN.
    """
    if h.shape[1] != model.input_dim:
        raise ValueError(
            f"shape error: features have dim {h.shape[1]}, "
            f"first layer expects {model.input_dim}"
        )
    with np.errstate(over="raise", invalid="raise"):
        for li in range(depth):
            weights = model.layers[li]
            last = li == model.depth - 1
            agg = np.zeros((len(incidence), weights.shape[0]))
            for i, pairs in enumerate(incidence):
                if model.self_loop:
                    acc = h[i].copy()
                    count = 1
                else:
                    acc = np.zeros(weights.shape[0])
                    count = 0
                for j, eid in pairs:
                    acc += h[j] if mask is None else float(mask.get(eid, 1.0)) * h[j]
                    count += 1
                if last and extra_message is not None and i == at:
                    acc = acc + np.asarray(extra_message, dtype=float).reshape(-1)
                    count += 1
                if model.mean_aggregate and count:
                    acc = acc / count
                agg[i] = acc
            z = agg @ weights
            h = _activate(model.activation, z) if (not last or model.final_activation) else z
    return h


def forward_hidden(
    model: Model,
    graph: Graph,
    v: int,
    restrict: Subgraph | None = None,
    mask: Mapping | None = None,
    extra_message: np.ndarray | None = None,
) -> np.ndarray:
    """Last-layer state of node v before the softmax.

    ``restrict`` limits both the node scope and the usable edges to an
    edge-induced subgraph whose target must be v; nodes outside it
    contribute nothing. ``mask`` scales messages per parent-graph edge id
    (default weight 1; the self contribution is never masked).
    ``extra_message`` is added to v's aggregation at the last layer.
    """
    if not 0 <= v < graph.node_count:
        raise ValueError(f"node id out of range: {v}")
    if restrict is not None and restrict.target != v:
        raise ValueError("target not in subgraph: restriction is anchored elsewhere")
    if mask:
        _check_mask(mask)

    if restrict is None:
        h = graph.features
        incidence = graph.incidence
        local_v = v
    else:
        scope = restrict.node_set
        local = {node: i for i, node in enumerate(scope)}
        lists: list[list[tuple[int, int]]] = [[] for _ in scope]
        for eid in restrict.edge_set:
            a, b = graph.edges[eid]
            lists[local[a]].append((local[b], eid))
            lists[local[b]].append((local[a], eid))
        for lst in lists:
            lst.sort()
        h = graph.features[list(scope)]
        incidence = lists
        local_v = local[v]
    try:
        h = _propagate(model, h, incidence, model.depth, mask, extra_message, local_v)
    except FloatingPointError as exc:
        raise ValueError(f"forward pass at node {v}: {exc}") from None
    return h[local_v].copy()


def forward(
    model: Model,
    graph: Graph,
    v: int,
    restrict: Subgraph | None = None,
    mask: Mapping | None = None,
    extra_message: np.ndarray | None = None,
) -> np.ndarray:
    """Class distribution at node v under the (possibly restricted) forward pass."""
    return softmax(forward_hidden(model, graph, v, restrict, mask, extra_message))


def node_embeddings(model: Model, graph: Graph, depth_limit: int) -> np.ndarray:
    """All-node states after ``depth_limit`` layers of the unmasked full pass.

    ``depth_limit`` 0 returns the raw features. Intermediate layers always
    apply the activation, matching what the next layer would consume.
    """
    if not 0 <= depth_limit <= model.depth:
        raise ValueError("depth_limit out of range")
    try:
        return _propagate(model, graph.features, graph.incidence, depth_limit)
    except FloatingPointError as exc:
        raise ValueError(f"forward pass: {exc}") from None


def masked_loss(model: Model, graph: Graph, v: int, y: int, mask: Mapping | None) -> float:
    """Negative log-probability of class y at v under the masked forward pass."""
    probs = forward(model, graph, v, mask=mask)
    if not 0 <= y < probs.size:
        raise ValueError(f"class index out of range: {y}")
    return float(-np.log(probs[y]))
