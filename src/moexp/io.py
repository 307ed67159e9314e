"""JSON/CSV formats, content-hashed run manifests, and atomic writes.

Graph documents::

    {"directed": false,
     "nodes": [{"id": 0, "features": [...], "label": 0}, ...],
     "edges": [[0, 1], ...]}

Node ids must be dense 0..n-1 (any order); labels are optional per node.
Weight documents follow ``gcn.load_weights``. Edge-weight documents are a
flat object mapping edge-id strings to numbers.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import os
import tempfile
from typing import Mapping

import numpy as np

from . import __version__
from .gcn import Model, load_weights
from .graph import Graph, build_graph


class FormatError(ValueError):
    """Schema violation in an input document, with field context."""


def parse_graph(doc: Mapping) -> Graph:
    """Validate a graph document and build the canonical Graph."""
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
        graph = build_graph(features, edges, labels)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    finite = np.isfinite(graph.features).all(axis=1)
    if not finite.all():
        i = next(i for i, node in enumerate(nodes) if not finite[node["id"]])
        raise FormatError(f"nodes[{i}]: features must be finite")
    return graph


def graph_to_doc(graph: Graph) -> dict:
    nodes = []
    for i in range(graph.node_count):
        node: dict = {"id": i, "features": [float(x) for x in graph.features[i]]}
        if graph.labels is not None and graph.labels[i] is not None:
            node["label"] = int(graph.labels[i])
        nodes.append(node)
    return {"directed": False, "nodes": nodes, "edges": [[int(u), int(w)] for u, w in graph.edges]}


def load_graph(path) -> Graph:
    with open(path) as fh:
        return parse_graph(json.load(fh))


def save_graph(graph: Graph, path) -> None:
    dump_json(graph_to_doc(graph), path)


def model_to_doc(model: Model) -> dict:
    doc = {
        "activation": model.activation,
        "self_loop": model.self_loop,
        "layers": [
            {"rows": int(w.shape[0]), "cols": int(w.shape[1]), "data": [float(x) for x in w.ravel()]}
            for w in model.layers
        ],
    }
    if model.mean_aggregate:
        doc["mean_aggregate"] = True
    if model.final_activation:
        doc["final_activation"] = True
    return doc


def load_model(path) -> Model:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return load_weights(doc)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def save_model(model: Model, path) -> None:
    dump_json(model_to_doc(model), path)


def parse_edge_weights(doc: Mapping) -> dict:
    if not isinstance(doc, Mapping):
        raise FormatError("edge weights document must be an object")
    out = {}
    for key, value in doc.items():
        try:
            out[int(key)] = float(value)
        except (TypeError, ValueError):
            raise FormatError(f"edge weights: bad entry {key!r}: {value!r}") from None
    return out


def load_edge_weights(path) -> dict:
    with open(path) as fh:
        return parse_edge_weights(json.load(fh))


def save_edge_weights(weights: Mapping, path) -> None:
    dump_json({str(int(k)): float(v) for k, v in weights.items()}, path)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_manifest(config: Mapping, seed: int, inputs: Mapping) -> dict:
    """Reproducibility block embedded in every output document.

    ``inputs`` maps role names to file paths; each is recorded with its
    sha256 content hash. ``generated_at`` is the only field expected to
    differ between identical runs.
    """
    return {
        "tool": f"moexp {__version__}",
        "prng": "numpy PCG64",
        "seed": int(seed),
        "config": dict(config),
        "inputs": {
            role: {"path": str(path), "sha256": sha256_file(path)}
            for role, path in inputs.items()
        },
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _json_default(value):
    """Convert numpy arrays and scalars, which ``json`` cannot serialize, to Python values."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_json(doc, path) -> None:
    """Serialize with sorted keys and replace the destination atomically."""
    payload = json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"
    _atomic_write(path, payload)


def _atomic_write(path, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write rows atomically with an exact header line."""
    import io as _io

    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _atomic_write(path, buffer.getvalue())
