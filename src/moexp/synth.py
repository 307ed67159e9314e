"""Seeded synthetic graphs with matching prototype classifiers.

Each class gets a prototype feature direction; node features are a noisy
copy of their class prototype. The companion model projects aggregated
features onto the prototypes in its first layer and passes the resulting
class evidence through an identity second layer, so a node surrounded by
class-c features predicts class c.
"""

from __future__ import annotations

import numpy as np

from .gcn import Model
from .graph import build_graph

KINDS = ("chain", "star", "planted-motif", "erdos")


def prototype_model(class_count: int) -> Model:
    """Two-layer classifier matched to prototype features: the first layer
    projects features onto the class directions, the identity columns."""
    if class_count < 2:
        raise ValueError("class_count must be at least 2")
    return Model(layers=(np.eye(class_count), np.eye(class_count)), activation="relu", self_loop=True)


def _features(labels, protos, scales, noise, rng):
    return [scale * protos[:, lbl] + noise * rng.standard_normal(protos.shape[0]) for lbl, scale in zip(labels, scales)]


def _erdos_edges(n: int, p: float, rng) -> list:
    """The pairs (i, j), i < j, each kept with probability p. Each i draws
    its row of uniforms at once: the draws, in order, of one per pair."""
    u, below = np.empty(n), np.empty(n, dtype=bool)  # reused: new arrays per row fragment the heap the edges grow in
    hits = (np.flatnonzero(np.less(rng.random(out=u[i + 1 :]), p, out=below[i + 1 :])) for i in range(n))
    return [(i, i + 1 + j) for i, row in enumerate(hits) for j in row.tolist()]


def _check_params(params, allowed, kind):
    unknown = set(params) - set(allowed)
    if unknown:
        raise ValueError(f"bad params for kind {kind!r}: {sorted(unknown)}")


def _count(params, key, default, least, needs) -> int:
    """``params[key]``, or ``default``, as an exact int of at least ``least``,
    as io reads JSON integers: a bool, a float or a string is none.
    ``needs`` states the bound in the error."""
    value = params.get(key, default)
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{needs} ({key}={value})")
    return value


def _number(params, key, default) -> float:
    """``params[key]``, or ``default``, as a float; the error names ``key``."""
    value = params.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _finite(params, key, default) -> float:
    value = _number(params, key, default)
    if not np.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    return value


def synth_graph(kind: str, params: dict | None = None, seed: int = 0):
    """Build a named graph family member plus its companion model.

    Kinds and their params, all optional. Before anything is drawn, the
    counts ``nodes``, ``leaves``, ``background``, ``classes`` and
    ``max_degree`` must be ints (not bools or floats) no smaller than the
    kind's bound, ``noise`` and ``scale`` finite numbers and ``p`` a number
    in [0, 1]; the features they draw must be finite too. Otherwise
    ``ValueError`` names the parameter.

    - ``chain``: nodes, classes, noise, scale. Path graph, classes alternate
      along the path.
    - ``star``: leaves, classes, noise, scale. Center is node 0, class 0;
      leaf classes cycle through the remaining classes.
    - ``planted-motif``: background, classes, noise. Node 0 is the target
      with weak features; nodes 1-3 form a strongly class-0 motif tree that
      determines its prediction; background nodes carry other classes and
      attach at random.
    - ``erdos``: nodes, p, classes, noise, scale, max_degree. Independent
      edges with probability p; max_degree (if set) drops excess edges in
      canonical order.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind: {kind!r}")
    params = dict(params or {})
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))

    if kind == "chain":
        _check_params(params, {"nodes", "classes", "noise", "scale"}, kind)
        n = _count(params, "nodes", 4, 2, "chain needs at least 2 nodes")
        classes = _count(params, "classes", 2, 2, "chain needs at least 2 classes")
        noise = _finite(params, "noise", 0.05)
        scale = _finite(params, "scale", 1.0)
        labels = [i % classes for i in range(n)]
        edges = [(i, i + 1) for i in range(n - 1)]
        scales = [scale] * n

    elif kind == "star":
        _check_params(params, {"leaves", "classes", "noise", "scale"}, kind)
        leaves = _count(params, "leaves", 3, 1, "star needs at least 1 leaf")
        classes = _count(params, "classes", 2, 2, "star needs at least 2 classes")
        noise = _finite(params, "noise", 0.05)
        scale = _finite(params, "scale", 1.0)
        labels = [0] + [(1 + i) % classes for i in range(leaves)]
        edges = [(0, i + 1) for i in range(leaves)]
        scales = [scale] * (leaves + 1)

    elif kind == "planted-motif":
        _check_params(params, {"background", "classes", "noise"}, kind)
        background = _count(params, "background", 6, 0, "planted-motif needs at least 0 background nodes")
        classes = _count(params, "classes", 3, 2, "planted-motif needs at least 2 classes")
        noise = _finite(params, "noise", 0.05)
        n = 4 + background
        labels = [0, 0, 0, 0] + [1 + i % (classes - 1) for i in range(background)]
        edges = [(0, 1), (0, 2), (1, 3)]
        for b in range(background):
            node = 4 + b
            anchor = int(rng.integers(0, node)) if b else 0
            edges.append((anchor, node))
        scales = [0.2, 1.6, 1.6, 1.6] + [0.9] * background

    else:
        _check_params(params, {"nodes", "p", "classes", "noise", "scale", "max_degree"}, kind)
        n = _count(params, "nodes", 30, 1, "erdos needs at least 1 node")
        p = _number(params, "p", 0.1)
        classes = _count(params, "classes", 3, 2, "erdos needs at least 2 classes")
        noise = _finite(params, "noise", 0.05)
        scale = _finite(params, "scale", 1.0)
        cap = params.get("max_degree")
        if cap is not None:
            cap = _count(params, "max_degree", None, 0, "erdos needs a max_degree of at least 0")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        labels = [int(c) for c in rng.integers(0, classes, size=n)]
        edges = _erdos_edges(n, p, rng)
        if cap is not None:
            degree = [0] * n
            kept = []
            for u, w in sorted(edges):
                if degree[u] < cap and degree[w] < cap:
                    kept.append((u, w))
                    degree[u] += 1
                    degree[w] += 1
            edges = kept
        scales = [scale] * n

    model = prototype_model(classes)
    with np.errstate(over="ignore", invalid="ignore"):
        feats = _features(labels, model.layers[0], scales, noise, rng)
    if not np.isfinite(feats).all():
        raise ValueError("drawn features overflow: noise or scale too large for finite features")
    return build_graph(feats, edges, labels), model
