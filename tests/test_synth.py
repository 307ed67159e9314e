import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moexp import explain_node, shapley_values, synth_graph
from moexp.synth import KINDS, _erdos_edges, prototype_model

from conftest import forward_at
from oracles import degree, erdos_edges, explanation, feature_dim, same_graph


def test_kind_catalogue():
    assert KINDS == ("chain", "star", "planted-motif", "erdos")


def test_chain_topology():
    g, m = synth_graph("chain", {"nodes": 5}, seed=3)
    assert g.node_count == 5
    assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert m.input_dim == feature_dim(g)
    assert len(g.labels) == 5


def test_star_topology():
    g, _ = synth_graph("star", {"leaves": 4}, seed=3)
    assert g.node_count == 5
    assert g.edges == ((0, 1), (0, 2), (0, 3), (0, 4))
    assert degree(g, 0) == 4


def test_planted_motif_shape_and_signal():
    g, m = synth_graph("planted-motif", {"background": 6}, seed=7)
    assert g.node_count == 10
    assert {(0, 1), (0, 2), (1, 3)} <= set(g.edges)
    assert g.labels[:4] == (0, 0, 0, 0)
    # the motif nodes carry the attribution for the target's class
    values = shapley_values(m, g, 0)
    motif = {1, 2, 3} & set(values)
    rest = set(values) - {1, 2, 3}
    assert motif
    worst_motif = min(values[n].value for n in motif)
    if rest:
        assert worst_motif > max(values[n].value for n in rest)
    assert int(np.argmax(forward_at(m, g, 0))) == 0


def test_erdos_degree_cap():
    g, _ = synth_graph("erdos", {"nodes": 40, "p": 0.5, "max_degree": 5}, seed=1)
    assert max(degree(g, v) for v in range(g.node_count)) <= 5


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
@example(1, 0.5, 0)
@example(2, 0.0, 1)
@example(2, 1.0, 2)
@example(40, 1.0, 3)
def test_erdos_rows_draw_what_one_draw_per_pair_draws(n, p, seed):
    # The same edges, and the stream left where the per-pair draws leave it,
    # so the features drawn next are the same too.
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _erdos_edges(n, p, rng) == erdos_edges(n, p, reference)
    assert rng.random() == reference.random()


def test_same_seed_identical_pair():
    a_g, a_m = synth_graph("erdos", {"nodes": 15, "p": 0.3}, seed=9)
    b_g, b_m = synth_graph("erdos", {"nodes": 15, "p": 0.3}, seed=9)
    assert same_graph(a_g, b_g)
    for x, y in zip(a_m.layers, b_m.layers):
        assert np.array_equal(x, y)
    c_g, _ = synth_graph("erdos", {"nodes": 15, "p": 0.3}, seed=10)
    assert not same_graph(a_g, c_g)


def test_bad_inputs_rejected():
    with pytest.raises(ValueError, match="unknown kind"):
        synth_graph("mystery")
    with pytest.raises(ValueError, match="bad params"):
        synth_graph("chain", {"chaos": 1})
    with pytest.raises(ValueError, match="at least 2 classes"):
        synth_graph("planted-motif", {"classes": 1})
    with pytest.raises(ValueError, match=r"p must lie"):
        synth_graph("erdos", {"p": 1.5})


NOT_FINITE = [
    ("chain", {"scale": float("inf")}, "^scale must be finite, got inf$"),
    ("star", {"noise": float("nan")}, "^noise must be finite, got nan$"),
    ("erdos", {"nodes": 5, "noise": 1e308}, "^drawn features overflow"),
]


@pytest.mark.parametrize("kind, params, message", NOT_FINITE)
def test_parameters_that_draw_no_finite_features_are_rejected(kind, params, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes
        with pytest.raises(ValueError, match=message):
            synth_graph(kind, params, seed=42)  # the seed the synth command defaults to


def test_prototype_model_square_features_identity():
    m = prototype_model(class_count=3)
    assert np.array_equal(m.layers[0], np.eye(3))
    assert np.array_equal(m.layers[1], np.eye(3))


BAD_COUNTS = [
    ("chain", {"nodes": 3.5}, "nodes must be an integer, got 3.5"),
    ("chain", {"nodes": "abc"}, "nodes must be an integer, got 'abc'"),
    ("chain", {"nodes": True}, "nodes must be an integer, got True"),
    ("star", {"leaves": 2.7}, "leaves must be an integer, got 2.7"),
    ("planted-motif", {"background": -1}, "planted-motif needs at least 0 background nodes (background=-1)"),
    ("erdos", {"max_degree": -1}, "erdos needs a max_degree of at least 0 (max_degree=-1)"),
    ("chain", {"classes": 0}, "chain needs at least 2 classes (classes=0)"),
    ("star", {"classes": 0}, "star needs at least 2 classes (classes=0)"),
    ("erdos", {"classes": 0}, "erdos needs at least 2 classes (classes=0)"),
    ("erdos", {"classes": 1}, "erdos needs at least 2 classes (classes=1)"),
]


@pytest.mark.parametrize("kind, params, message", BAD_COUNTS)
def test_counts_are_exact_ints_checked_before_any_draw(kind, params, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synth_graph(kind, params, seed=42)


def test_synthetic_graphs_explainable_end_to_end():
    for kind in KINDS:
        g, m = synth_graph(kind, seed=4)
        res = explain_node(m, g, 0)
        assert 0 in explanation(res).node_set
