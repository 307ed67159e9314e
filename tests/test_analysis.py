import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moexp import (
    EnumConfig,
    Model,
    build_graph,
    confounder_set,
    derive_seed,
    enumerate_subgraphs,
    forward,
    jaccard_distance,
    make_subgraph,
    perturb_message,
    perturb_weights,
    run_sanity_sweep,
)
from moexp.gcn import forward_hidden

from conftest import sem_chain, sem_model
from oracles import random_graph, random_model, restricted_hidden_tree, sem_expand_check


def chain_removed(graph, expl_edges, cf_edges, target=2):
    enum = enumerate_subgraphs(graph, target, EnumConfig(max_nodes=4, diameter=2))
    return enum.removed_nodes(enum.index[tuple(expl_edges)], enum.index[tuple(cf_edges)])


def test_confounders_chain_far_node_removed(chain_graph):
    removed = chain_removed(chain_graph, [0, 1, 2], [1, 2])
    assert removed == [0]
    assert confounder_set(chain_graph, 2, 2, removed) == {1, 3}


def test_confounders_empty_when_whole_ball_removed(chain_graph):
    removed = chain_removed(chain_graph, [0, 1, 2], [])
    assert set(removed) == {0, 1, 3}
    assert confounder_set(chain_graph, 2, 2, removed) == set()


def test_confounders_two_node_explanation(chain_graph):
    removed = chain_removed(chain_graph, [1], [])
    assert removed == [1]
    assert confounder_set(chain_graph, 2, 2, removed) == {0, 3}


def test_confounders_shrinking_radius(chain_graph):
    removed = chain_removed(chain_graph, [1, 2], [1])
    assert removed == [3]
    assert confounder_set(chain_graph, 2, 1, removed) == {1}
    assert confounder_set(chain_graph, 2, 2, removed) == {0, 1}


def test_confounders_empty_iff_removal_covers_ball(chain_graph):
    from moexp import generate_pairs

    enum = enumerate_subgraphs(chain_graph, 2, EnumConfig(max_nodes=4, diameter=2))
    for e, c in generate_pairs(enum, exhaustive=True):
        removed = enum.removed_nodes(e, c)
        conf = confounder_set(chain_graph, 2, 2, removed)
        covers = set(removed) == {0, 1, 3}
        assert (conf == set()) == covers


def test_nested_expansion_frozen_chain_values():
    m = sem_model()
    g0, g5 = sem_chain(0), sem_chain(5)
    expl = make_subgraph(g0, 2, [0, 1, 2])
    cf = make_subgraph(g0, 2, [1, 2])

    h_expl = float(restricted_hidden_tree(m, g0, 2, expl)[0])
    h_cf = float(restricted_hidden_tree(m, g0, 2, cf)[0])
    assert h_expl == 0.8495477739862124
    assert h_cf == 0.8175744761936437

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    assert h_expl == pytest.approx(sigmoid(2 * sigmoid(0.0) + sigmoid(1.0)), abs=1e-12)
    assert h_cf == sigmoid(1.5)
    assert h_expl - h_cf == 0.031973297792568744

    e5 = make_subgraph(g5, 2, [0, 1, 2])
    c5 = make_subgraph(g5, 2, [1, 2])
    delta5 = float(restricted_hidden_tree(m, g5, 2, e5)[0] - restricted_hidden_tree(m, g5, 2, c5)[0])
    assert delta5 == 0.014863371968424022
    assert delta5 != h_expl - h_cf


def test_nested_expansion_equals_forward_on_chain():
    m = sem_model()
    for t in (0.0, 5.0, -3.0):
        g = sem_chain(t)
        for edges in ([], [1], [1, 2], [0, 1, 2]):
            sub = make_subgraph(g, 2, edges) if edges else None
            got = sem_expand_check(m, g, 2, restrict=sub)
            want = forward_hidden(m, g, 2) if sub is None else restricted_hidden_tree(m, g, 2, sub)
            assert np.max(np.abs(got - want)) <= 1e-12


@given(st.integers(0, 60_000))
@settings(max_examples=60, deadline=None)
def test_nested_expansion_matches_random_models(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=7)
    m = random_model(rng, depth=2)
    v = int(rng.integers(0, g.node_count))
    got = sem_expand_check(m, g, v)
    want = forward_hidden(m, g, v)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_nested_expansion_rejects_other_depths():
    rng = np.random.default_rng(0)
    g = random_graph(rng, max_nodes=5)
    shallow = random_model(rng, depth=1)
    with pytest.raises(ValueError, match="two-layer"):
        sem_expand_check(shallow, g, 0)


def test_jaccard_distance_cases():
    assert jaccard_distance(set(), set()) == 0.0
    assert jaccard_distance({1, 2}, {1, 2}) == 0.0
    assert jaccard_distance({1}, {2}) == 1.0
    assert jaccard_distance({1, 2}, {2, 3}) == pytest.approx(2.0 / 3.0)
    assert jaccard_distance({1, 2}, set()) == 1.0


def test_derive_seed_stable_and_sensitive():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert derive_seed(42, 1, 2) != derive_seed(42, 1, 3)
    assert derive_seed(42, 1, 2) != derive_seed(43, 1, 2)
    assert derive_seed(42, 2, 1) != derive_seed(42, 1, 2)
    assert 0 <= derive_seed(0) < 2**32


def test_message_aligned_boost_raises_predicted_probability(triangle_graph, triangle_model):
    base = forward(triangle_model, triangle_graph, 0)
    y = int(np.argmax(base))
    out = perturb_message(triangle_model, triangle_graph, 0, 1.0, 2.0, seed=5)
    assert out.distribution[y] > base[y]
    theta = triangle_model.layers[-1][:, y]
    cosine = float(out.message @ theta) / (np.linalg.norm(out.message) * np.linalg.norm(theta))
    assert cosine == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(out.message) == pytest.approx(2.0, abs=1e-12)


def test_message_orthogonal_component(triangle_graph, triangle_model):
    base = forward(triangle_model, triangle_graph, 0)
    theta = triangle_model.layers[-1][:, int(np.argmax(base))]
    out = perturb_message(triangle_model, triangle_graph, 0, 0.0, 2.0, seed=5)
    assert abs(float(out.message @ theta)) <= 1e-9
    assert np.linalg.norm(out.message) == pytest.approx(2.0, abs=1e-12)


def test_message_intermediate_cos_split(triangle_graph, triangle_model):
    base = forward(triangle_model, triangle_graph, 0)
    theta = triangle_model.layers[-1][:, int(np.argmax(base))]
    unit = theta / np.linalg.norm(theta)
    out = perturb_message(triangle_model, triangle_graph, 0, 0.6, 1.5, seed=3)
    along = float(out.message @ unit)
    assert along == pytest.approx(0.6 * 1.5, abs=1e-9)
    assert np.linalg.norm(out.message) == pytest.approx(1.5, abs=1e-9)


def test_message_zero_magnitude_is_noop(triangle_graph, triangle_model):
    base = forward(triangle_model, triangle_graph, 0)
    out = perturb_message(triangle_model, triangle_graph, 0, 0.3, 0.0, seed=5)
    assert np.array_equal(out.distribution, base)


def test_message_argument_validation(triangle_graph, triangle_model):
    with pytest.raises(ValueError, match="target_cos"):
        perturb_message(triangle_model, triangle_graph, 0, 1.5, 1.0, seed=0)
    with pytest.raises(ValueError, match="magnitude"):
        perturb_message(triangle_model, triangle_graph, 0, 0.5, -1.0, seed=0)


def test_message_one_dim_hidden_space(chain_graph, chain_model):
    # a single hidden dimension has no orthogonal direction, so only exact
    # alignment is representable
    with pytest.raises(ValueError, match="no orthogonal direction"):
        perturb_message(chain_model, chain_graph, 2, 0.5, 1.0, seed=0)
    up = perturb_message(chain_model, chain_graph, 2, 1.0, 0.8, seed=0)
    down = perturb_message(chain_model, chain_graph, 2, -1.0, 0.8, seed=0)
    assert up.message[0] == 0.8
    assert down.message[0] == -0.8


def test_message_zero_class_column_rejected():
    g = build_graph([[1.0, 0.0], [0.0, 1.0]], [(0, 1)])
    m = Model(layers=(np.eye(2), np.zeros((2, 2))))
    with pytest.raises(ValueError, match="zero-norm class column"):
        perturb_message(m, g, 0, 0.5, 1.0, seed=0)


def test_message_with_config_rescoring(triangle_graph, triangle_model):
    out = perturb_message(
        triangle_model, triangle_graph, 0, -1.0, 3.0, seed=2, config=EnumConfig(max_nodes=3, diameter=2)
    )
    assert out.explanation is not None
    assert out.explanation.target == 0
    # the re-scored explanation sees the perturbed full distribution
    assert np.array_equal(out.explanation.full_distribution, out.distribution)


def test_weights_perturbation_exact_distance(triangle_model):
    shifted = perturb_weights(triangle_model, 0.75, seed=9)
    moved = np.linalg.norm(shifted.layers[-1] - triangle_model.layers[-1])
    assert abs(moved - 0.75) <= 1e-9
    for ours, theirs in zip(shifted.layers[:-1], triangle_model.layers[:-1]):
        assert np.array_equal(ours, theirs)


def test_weights_perturbation_zero_is_identity(triangle_model):
    assert perturb_weights(triangle_model, 0.0, seed=9) is triangle_model


def test_weights_perturbation_seeded(triangle_model):
    a = perturb_weights(triangle_model, 0.5, seed=4)
    b = perturb_weights(triangle_model, 0.5, seed=4)
    c = perturb_weights(triangle_model, 0.5, seed=5)
    assert np.array_equal(a.layers[-1], b.layers[-1])
    assert not np.array_equal(a.layers[-1], c.layers[-1])


def test_sweep_message_grid_shape(triangle_graph, triangle_model):
    records = run_sanity_sweep(
        triangle_model, triangle_graph, [0, 1], "message", steps=3, seed=11, magnitude=1.5
    )
    assert len(records) == 6
    assert [(r.node, r.strength) for r in records] == [
        (0, -1.0), (0, 0.0), (0, 1.0), (1, -1.0), (1, 0.0), (1, 1.0),
    ]
    assert all(r.kind == "message" for r in records)
    assert records[0].seed == derive_seed(11, 0, 0)
    assert records[4].seed == derive_seed(11, 1, 1)


def test_sweep_weights_grid_and_null_step(chain_graph, chain_model):
    records = run_sanity_sweep(
        chain_model, chain_graph, [2], "weights", steps=3, seed=11, max_distance=2.0
    )
    assert [r.strength for r in records] == [0.0, 1.0, 2.0]
    first = records[0]
    assert first.strength == 0.0
    assert first.pred_after == first.pred_before
    assert first.jaccard == 0.0


def test_sweep_validation(triangle_graph, triangle_model):
    with pytest.raises(ValueError, match="steps"):
        run_sanity_sweep(triangle_model, triangle_graph, [0], "message", steps=1, seed=0)
    with pytest.raises(ValueError, match="unknown mode"):
        run_sanity_sweep(triangle_model, triangle_graph, [0], "spin", steps=3, seed=0)


def test_sweep_is_reproducible(triangle_graph, triangle_model):
    a = run_sanity_sweep(triangle_model, triangle_graph, [0, 2], "message", steps=4, seed=3)
    b = run_sanity_sweep(triangle_model, triangle_graph, [0, 2], "message", steps=4, seed=3)
    assert a == b
