"""JSON/CSV formats, content-hashed run manifests, and atomic writes.

Every document is read and written as UTF-8, whatever the locale.

Graph documents::

    {"directed": false,
     "nodes": [{"id": 0, "features": [...], "label": 0}, ...],
     "edges": [[0, 1], ...]}

Node ids must be dense 0..n-1 (any order), and edge endpoints are node
ids, both JSON integers. ``features`` is a list of JSON numbers, the same
length for every node; a label, optional per node, is a JSON integer or
null; ``directed`` is optional and must be false. Other keys are ignored.

Weight documents::

    {"activation": "relu", "self_loop": true,
     "layers": [{"rows": r, "cols": c, "data": [... r*c row-major ...]}]}

``activation`` is one of ``gcn.ACTIVATIONS``; each layer's ``rows`` and
``cols`` are positive integers and its ``data`` a list of finite JSON
numbers. The optional flags ``self_loop`` (default true),
``mean_aggregate`` and ``final_activation`` (default false) are JSON
booleans. Any other key fails the load. The model needs two classes or more.

Edge-weight documents are a flat object mapping edge ids, written as
decimal integers, to finite numbers.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import tempfile
from collections.abc import Mapping
from itertools import chain

import numpy as np

from . import __version__
from .gcn import Model
from .graph import Graph, build_graph


class FormatError(ValueError):
    """Schema violation in an input document, with field context."""


# A JSON integer is an int and a JSON number an int or a float, by exact
# type, so a bool is neither.
_NUMBER = frozenset({int, float})


def _finite(values) -> bool:
    """Whether ``values``, a JSON number or a list of them, read as finite
    floats; an integer beyond the float range does not."""
    try:
        return bool(np.isfinite(np.array(values, dtype=float)).all())
    except OverflowError:
        return False


def _as_array(values: list, dtype, shape, nested):
    """The flat ``values`` as an array of ``shape``, or ``nested``, the same
    entries as a list of rows, when an int is beyond ``dtype``'s range."""
    try:
        return np.array(values, dtype=dtype).reshape(shape)
    except OverflowError:
        return nested


def parse_graph(doc: Mapping) -> Graph:
    """Validate a graph document and build the canonical Graph."""
    if not isinstance(doc, Mapping):
        raise FormatError("graph document must be an object")
    directed = doc.get("directed", False)
    if not isinstance(directed, bool):
        raise FormatError(f"directed: expected true or false, got {directed!r}")
    if directed:
        raise FormatError("directed graphs are not supported")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise FormatError("nodes: expected a non-empty list")
    ordered = _ordered_nodes(nodes)
    features = [node["features"] for node in ordered]
    labels = None
    if any("label" in node for node in ordered):
        labels = [node.get("label") for node in ordered]
    # The set tests pass lists of ints and floats and labels that are ints
    # or null, which is every valid document that json gives; the loop names
    # the first bad node.
    list_rows = set(map(type, features)) <= {list}
    values = list(chain.from_iterable(features)) if list_rows else []
    if not (list_rows and set(map(type, values)) <= _NUMBER and set(map(type, labels or ())) <= {int, type(None)}):
        for i, node in enumerate(nodes):
            label = node.get("label")
            if not (label is None or type(label) is int):
                raise FormatError(f"nodes[{i}]: label must be an integer or null")
            row = node["features"]
            if not (isinstance(row, (list, tuple)) and set(map(type, row)) <= _NUMBER):
                raise FormatError(f"nodes[{i}]: features must be a list of numbers")
    # Rows of one non-zero width go to build_graph as an array, converted
    # from their flat column in one call, and so do the edges below. Ragged
    # or empty rows, an int feature beyond the float range and an endpoint
    # beyond int64 go as they are, and build_graph names the fault.
    width = len(features[0]) if list_rows else 0
    if width and set(map(len, features)) == {width}:
        features = _as_array(values, float, (len(features), width), features)
    del values
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise FormatError("edges: expected a list")
    # The set tests pass a document of plain two-item lists and tuples of
    # ints, which is every valid one that json gives; the loop names the
    # first bad entry.
    pairs = set(map(type, edges)) <= {list, tuple} and set(map(len, edges)) <= {2}
    ends = list(chain.from_iterable(edges)) if pairs else []
    if not (pairs and set(map(type, ends)) <= {int}):
        for i, pair in enumerate(edges):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise FormatError(f"edges[{i}]: expected a pair")
            if not all(type(x) is int for x in pair):
                raise FormatError(f"edges[{i}]: endpoints must be integers")
    edges = _as_array(ends, np.int64, (len(edges), 2), edges)
    del ends
    try:
        graph = build_graph(features, edges, labels)
        finite = np.isfinite(graph.features).all(axis=1)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    except OverflowError:
        # An integer feature beyond the float range, which no float holds.
        finite = np.array([_finite(node["features"]) for node in ordered])
    if not finite.all():
        i = next(i for i, node in enumerate(nodes) if not finite[node["id"]])
        raise FormatError(f"nodes[{i}]: features must be finite")
    return graph


def _ordered_nodes(nodes: list) -> list:
    """The node objects in id order, after checking each one.

    The set tests and the comparison with 0..n-1 pass a list of plain
    dicts whose ids are the ints 0..n-1 in order, each with features, which
    is every valid list that ``graph_to_doc`` writes; any other list runs
    the loop, which names the first bad entry.
    """
    if set(map(type, nodes)) == {dict} and all("features" in node for node in nodes):
        ids = [node.get("id") for node in nodes]
        if set(map(type, ids)) == {int} and ids == list(range(len(nodes))):
            return nodes
    seen: dict[int, Mapping] = {}
    for i, node in enumerate(nodes):
        if not isinstance(node, Mapping):
            raise FormatError(f"nodes[{i}]: expected an object")
        if "id" not in node:
            raise FormatError(f"nodes[{i}]: missing 'id'")
        if "features" not in node:
            raise FormatError(f"nodes[{i}]: missing 'features'")
        nid = node["id"]
        if type(nid) is not int:
            raise FormatError(f"nodes[{i}]: id must be an integer")
        if nid in seen:
            raise FormatError(f"nodes[{i}]: duplicate id {nid}")
        seen[nid] = node
    n = len(seen)
    if set(seen) != set(range(n)):
        raise FormatError(f"node ids must be dense 0..{n - 1}")
    return [seen[i] for i in range(n)]


def graph_to_doc(graph: Graph) -> dict:
    nodes = [{"id": i, "features": row} for i, row in enumerate(graph.features.tolist())]
    for node, label in zip(nodes, graph.labels or ()):
        if label is not None:
            node["label"] = label
    return {"directed": False, "nodes": nodes, "edges": np.stack([graph.lo, graph.hi], axis=1).tolist()}


def _read_json(path, digests: dict | None = None):
    """The JSON document at ``path``, read once, decoded as UTF-8 and with newlines
    translated as in text mode; ``FormatError``, naming the file, when it is not
    JSON. ``digests``, when given, gets the sha256 of its bytes under ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
        del data  # freed before the document is built, as a text-mode read frees it
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, a UnicodeDecodeError or deep nesting
        raise FormatError(f"{path}: not a JSON document: {exc}") from None


def load_graph(path, digests: dict | None = None) -> Graph:
    return parse_graph(_read_json(path, digests))


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


def load_weights(doc: Mapping) -> Model:
    """Build a Model from a weights document (see the module docstring)."""
    if not isinstance(doc, Mapping):
        raise FormatError("weights document must be an object")
    try:
        raw_layers = doc["layers"]
        activation = doc["activation"]
    except KeyError as exc:
        raise FormatError(f"weights document missing key: {exc.args[0]}") from None
    defaults = {"self_loop": True, "mean_aggregate": False, "final_activation": False}
    for key in doc:
        if key not in defaults and key not in ("activation", "layers"):
            raise FormatError(f"weights document: unknown key {key!r}")
    flags = {key: doc.get(key, default) for key, default in defaults.items()}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise FormatError(f"{key} must be true or false, got {value!r}")
    if not isinstance(raw_layers, list):
        raise FormatError(f"layers must be a list, got {raw_layers!r}")
    mats = []
    for i, layer in enumerate(raw_layers):
        try:
            rows, cols, data = layer["rows"], layer["cols"], layer["data"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"layers[{i}]: malformed entry ({exc})") from None
        for key in layer:
            if key not in ("rows", "cols", "data"):
                raise FormatError(f"layers[{i}]: unknown key {key!r}")
        for key, value in (("rows", rows), ("cols", cols)):
            if type(value) is not int or value < 1:
                raise FormatError(f"layers[{i}]: {key} must be a positive integer, got {value!r}")
        if not (isinstance(data, list) and set(map(type, data)) <= _NUMBER):
            raise FormatError(f"layers[{i}]: data must be a list of numbers")
        if len(data) != rows * cols:
            raise FormatError(f"layers[{i}]: data length {len(data)} != rows*cols {rows * cols}")
        if not _finite(data):
            raise FormatError(f"layers[{i}]: weights must be finite")
        mats.append(np.array(data, dtype=float).reshape(rows, cols))
    try:
        model = Model(layers=tuple(mats), activation=activation, **flags)
    except ValueError as exc:  # no layers, shapes that do not chain, or an unknown activation
        raise FormatError(str(exc)) from None
    if model.class_count < 2:
        raise FormatError("class count must be at least 2")
    return model


def load_model(path, digests: dict | None = None) -> Model:
    return load_weights(_read_json(path, digests))


def save_model(model: Model, path) -> None:
    dump_json(model_to_doc(model), path)


def parse_edge_weights(doc: Mapping) -> dict:
    if not isinstance(doc, Mapping):
        raise FormatError("edge weights document must be an object")
    out = {}
    for key, value in doc.items():
        # A JSON number only: float() would also read NaN, Infinity, true and
        # numeric strings. A key is an edge id as str() writes it: int() would
        # also read " 7 ", "+8", "09" and other digits than ASCII ones.
        try:
            eid = int(key)
            if str(eid) != key or type(value) not in _NUMBER or not _finite(value):
                raise ValueError
        except (TypeError, ValueError):
            raise FormatError(f"edge weights: bad entry {key!r}: {value!r}") from None
        out[eid] = float(value)
    return out


def load_edge_weights(path, digests: dict | None = None) -> dict:
    return parse_edge_weights(_read_json(path, digests))


def save_edge_weights(weights: Mapping, path) -> None:
    dump_json({str(int(k)): float(v) for k, v in weights.items()}, path)


def run_manifest(config: Mapping, seed: int, inputs: Mapping, digests: Mapping) -> dict:
    """Reproducibility block embedded in every output document.

    ``inputs`` maps role names to file paths, and ``digests`` each path to
    the sha256 of the bytes the run parsed, as the loaders record it; no
    file is read here. ``generated_at`` is the only field expected to differ."""
    return {
        "tool": f"moexp {__version__}",
        "prng": "numpy PCG64",
        "seed": int(seed),
        "config": dict(config),
        "inputs": {role: {"path": str(path), "sha256": digests[path]} for role, path in inputs.items()},
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def json_default(value):
    """Convert numpy arrays and scalars, which ``json`` cannot serialize, to Python values."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_json(doc, path) -> None:
    """Serialize with sorted keys and replace the destination atomically.

    A str is a document already rendered (``cli.node_document``) and is
    written as it is.
    """
    if not isinstance(doc, str):
        doc = json.dumps(doc, sort_keys=True, indent=2, default=json_default) + "\n"
    _atomic_write(path, doc)


# Written files get the mode open(path, "w") gives, not mkstemp's 0600. The
# umask can only be read by setting it, so it is read once, at import:
# setting it while --jobs threads write files would race with them.
_UMASK = os.umask(0o022)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK


def _atomic_write(path, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write rows atomically with an exact header line."""
    import csv
    import io as _io

    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _atomic_write(path, buffer.getvalue())
