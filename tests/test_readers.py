"""Every input reader loads a document exactly or rejects it.

Valid synth documents (a graph, a weights file and an edge-weights file)
get one mutation each: the value at one JSON path is replaced, a key is
deleted, or an unknown key is added. Loading the file must then raise
``FormatError``, never another exception, or give an object whose written
form equals the document up to the normalizations README's "File formats"
lists. A silent coercion fails the property with no case per field.
"""

import copy
import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from moexp.io import (
    FormatError, graph_to_doc, load_edge_weights, load_graph, load_model, model_to_doc, save_edge_weights, save_graph,
    save_model,
)
from moexp.synth import synth_graph

# Values a lax reader coerces: a bool for a number, an int for a float and
# back, a signed zero, the float limit, an int beyond it, numeric strings, a
# non-ASCII digit and a padded id.
SEEDED = st.sampled_from([True, False, None, 1.0, 1, -0.0, 1e308, 10**400, "1", "1.5", "٣", " 7 "])
SCALARS = SEEDED | st.integers(-2, 12) | st.floats() | st.text(max_size=3)
# Scalars drawn often, the seeded ones most: st.recursive alone draws mostly
# lists and objects.
VALUES = SEEDED | SCALARS | st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Keys near the ones the formats name, and any others.
KEYS = st.sampled_from(["mean_agregate", "bias", "label ", "Features", "weights", "7", "-1"]) | st.text(max_size=6)


def _graph_docs():
    chain, model = synth_graph("chain", {"nodes": 4}, 0)
    star, _ = synth_graph("star", {"leaves": 3}, 1)
    unlabelled = graph_to_doc(star)
    for node in unlabelled["nodes"]:
        del node["label"]
    return [graph_to_doc(chain), unlabelled], model


GRAPHS, MODEL = _graph_docs()
WEIGHTS = [
    model_to_doc(MODEL),
    model_to_doc(dataclasses.replace(MODEL, activation="sigmoid", mean_aggregate=True, final_activation=True)),
]
EDGE_WEIGHTS = [{"0": 0.5, "1": -2.0, "2": 1e-300}, {}]


def _paths(doc, prefix=()):
    """Every JSON path in ``doc``, the root's included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, docs):
    """One of ``docs`` with one value replaced, one key deleted or one key added."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    paths = list(_paths(doc))
    keyed = [p for p in paths if p and isinstance(_at(doc, p[:-1]), dict)]
    objects = [p for p in paths if isinstance(_at(doc, p), dict)]
    kind = draw(st.sampled_from(["replace", "delete", "add"] if keyed else ["replace", "add"]))
    if kind == "replace":
        path = draw(st.sampled_from(paths))
        if not path:
            return draw(VALUES)
        _at(doc, path[:-1])[path[-1]] = draw(VALUES)
    elif kind == "delete":
        path = draw(st.sampled_from(keyed))
        del _at(doc, path[:-1])[path[-1]]
    else:
        target = _at(doc, draw(st.sampled_from(objects)))
        target[draw(KEYS.filter(lambda key: key not in target))] = draw(VALUES)
    return doc


def _floats(values):
    """A list of JSON numbers as the reader holds it: ints read as floats."""
    return [float(x) if type(x) is int else x for x in values]


def written_graph(doc):
    """The written form of a graph document: unknown keys dropped, nodes in
    id order, each edge as [low, high] in ascending order, a null label
    absent, and an absent ``directed`` false and absent ``edges`` empty."""
    nodes = []
    for node in sorted(doc["nodes"], key=lambda node: node["id"]):
        nodes.append({"id": node["id"], "features": _floats(node["features"])})
        if node.get("label") is not None:
            nodes[-1]["label"] = node["label"]
    edges = sorted(sorted(pair) for pair in doc.get("edges", []))
    return {"directed": doc.get("directed", False), "nodes": nodes, "edges": edges}


def written_weights(doc):
    """The written form of a weights document: an absent ``self_loop`` true,
    and a false ``mean_aggregate`` or ``final_activation`` absent."""
    layers = [dict(layer, data=_floats(layer["data"])) for layer in doc["layers"]]
    out = dict(doc, self_loop=doc.get("self_loop", True), layers=layers)
    for flag in ("mean_aggregate", "final_activation"):
        if out.get(flag, True) is False:
            del out[flag]
    return out


def written_edge_weights(doc):
    """The ``save_edge_weights`` form of an edge-weights document."""
    return dict(zip(doc, _floats(doc.values())))


READERS = {
    "graph": (GRAPHS, load_graph, save_graph, written_graph),
    "weights": (WEIGHTS, load_model, save_model, written_weights),
    "edge-weights": (EDGE_WEIGHTS, load_edge_weights, save_edge_weights, written_edge_weights),
}


def loads_exactly(kind, doc, path) -> bool:
    """Whether the reader of ``kind`` loads ``doc``, written to ``path``;
    what it loads, saved again, must be the document's written form, and a
    rejection must be a ``FormatError``."""
    _, load, save, expected = READERS[kind]
    path.write_text(json.dumps(doc))
    try:
        loaded = load(path)
    except FormatError:
        return False
    save(loaded, path)
    # sort_keys and json's own forms tell 1 from 1.0 and true, and -0.0 from 0.0.
    assert json.dumps(json.loads(path.read_text()), sort_keys=True) == json.dumps(expected(doc), sort_keys=True)
    if kind == "weights":
        assert {type(loaded.self_loop), type(loaded.mean_aggregate), type(loaded.final_activation)} == {bool}
    return True


def test_the_unmutated_documents_load_exactly(tmp_path):
    for kind, (docs, *_) in READERS.items():
        assert all(loads_exactly(kind, doc, tmp_path / "doc.json") for doc in docs)


@given(st.sampled_from(sorted(READERS)), st.data())
@settings(max_examples=300, deadline=None)
def test_a_mutated_document_loads_exactly_or_fails_with_a_format_error(tmp_path_factory, kind, data):
    doc = data.draw(mutated(READERS[kind][0]))
    loads_exactly(kind, doc, tmp_path_factory.getbasetemp() / f"mutated-{kind}.json")
