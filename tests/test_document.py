"""The explain document writer against the dict-building reference.

``cli.node_document`` renders ``top_pairs`` as text; each document must be
the exact text ``json.dumps(sort_keys=True, indent=2)`` writes for the dict
``oracles.reference_document`` builds from the same result, and its
``top_pairs`` the text of ``oracles.template_top_pairs``, one ``%``
template per pair.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moexp import METHODS, EnumConfig, build_graph, explain_node
from moexp.cli import _RECORDED, _floats, build_parser, node_document

from oracles import random_graph, random_model, reference_document, template_top_pairs


def _documents(result, graph, model, method, exhaustive, top_percent):
    argv = ["explain", "--graph", "g.json", "--weights", "w.json", "--out", "out", "--method", method]
    argv += ["--top-percent", repr(top_percent)] + ["--exhaustive-cf"] * exhaustive
    args = build_parser("explain").parse_args(argv)
    config = {name: getattr(args, name) for name in _RECORDED}
    manifest = {"tool": "moexp", "seed": 7, "config": config, "inputs": {}, "generated_at": ""}
    doc = reference_document(result, graph, model, args.top_percent, manifest)
    want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    got = node_document(result, args.top_percent, manifest)
    if result.front is not None:
        assert got.endswith('"top_pairs": ' + template_top_pairs(result, args.top_percent) + "\n}\n")
    return got, want


def _explain(model, graph, target, method, exhaustive, rng, config=EnumConfig()):
    weights = {eid: float(rng.random()) for eid in range(graph.edge_count)}
    return explain_node(
        model, graph, target, config, method=method, seed=int(rng.integers(0, 1000)),
        exhaustive_cf=exhaustive, edge_weights=weights,
    )


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(METHODS),
    st.booleans(),
    st.one_of(st.sampled_from([100.0, 50.0, 7.0, 1.0]), st.floats(1e-3, 100.0)),
    st.booleans(),
)
@settings(max_examples=250, deadline=None)
def test_document_equals_reference_json(seed, method, exhaustive, top_percent, flat):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=9, edge_prob=0.5)
    if flat:
        # All-zero features tie every score: relevance is 0.0 throughout.
        g = build_graph(np.zeros_like(g.features), g.edges)
    m = random_model(rng, activation=str(rng.choice(["relu", "sigmoid", "identity"])))
    v = int(rng.integers(0, g.node_count))
    config = EnumConfig(max_nodes=int(rng.integers(3, 5)), diameter=int(rng.integers(1, 3)))
    got, want = _documents(_explain(m, g, v, method, exhaustive, rng, config), g, m, method, exhaustive, top_percent)
    assert got == want


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("exhaustive", [False, True])
def test_document_without_front(method, exhaustive):
    rng = np.random.default_rng(0)
    g = build_graph([[1.0, 0.5], [0.0, 2.0]], [])
    m = random_model(rng)
    result = _explain(m, g, 0, method, exhaustive, rng)
    assert result.front is None
    got, want = _documents(result, g, m, method, exhaustive, 100.0)
    assert got == want
    assert json.loads(got)["top_pairs"] == []


@pytest.mark.parametrize("method", ["pareto-rank", "balanced", "shapley", "grad-fd"])
def test_document_with_every_score_tied(method, chain_graph):
    # Zero features through a relu stack give every tree the same prediction.
    g = build_graph(np.zeros_like(chain_graph.features), chain_graph.edges)
    rng = np.random.default_rng(0)
    m = random_model(rng, feature_dim=1)
    result = _explain(m, g, 2, method, True, rng)
    assert set(result.front.relevance.tolist()) == {0.0}
    for top_percent in (100.0, 50.0, 7.0, 1.0, 33.3):
        got, want = _documents(result, g, m, method, True, top_percent)
        assert got == want


def test_floats_are_written_as_json_writes_them():
    values = np.array([-0.0, 0.0, 1e-300, -2.5e17, 0.1, np.inf, -np.inf, np.nan])
    assert _floats(values) == [json.dumps(x) for x in values.tolist()]
