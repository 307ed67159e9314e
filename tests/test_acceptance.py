"""End-to-end acceptance checks.

Each test covers one external guarantee, prints a single PASS/FAIL line,
and uses only independent oracles (tests/oracles.py) for expected values.
Run with ``pytest -v`` (add ``-s`` to see the summary lines on success).
"""

import functools
import re
import statistics
import time

import numpy as np
import pytest

from moexp import (
    EnumConfig,
    Model,
    build_graph,
    canonical_order,
    confounder_set,
    explain_node,
    grad_weights_analytic,
    grad_weights_fd,
    shapley_values,
    simulatability,
    synth_graph,
)
from moexp.baselines import grow_table
from moexp.cli import build_parser, explain_command
from moexp.io import save_graph, save_model
from moexp.pareto import _front, _ranks

from conftest import enumerate_at, forward_at, hidden_at, sem_chain, sem_model
from oracles import (
    degree,
    dominates,
    explanation,
    index,
    make_subgraph,
    pareto_oracle,
    random_graph,
    random_model,
    restricted_hidden_tree,
    select_comprehensive,
    sem_expand_check,
    shapley_oracle,
    subgraph,
    subgraphs,
    tree_records,
)


def reported(label):
    """Print exactly one PASS/FAIL summary line for the wrapped test."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS" + (f" ({detail})" if detail else ""))

        return run

    return wrap


def fuzz_scores(count=1000, seed=20240207):
    """Score sets with deliberate exact ties and duplicate pairs."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        n = int(rng.integers(1, 40))
        if rng.random() < 0.5:
            sim = np.round(rng.uniform(-1, 0, n), 1)
            rel = np.round(rng.uniform(0, 1, n), 1)
        else:
            sim = rng.uniform(-5, 0, n)
            rel = rng.uniform(0, 5, n)
        scores = list(zip(sim.tolist(), rel.tolist()))
        if n > 3 and rng.random() < 0.3:
            scores[1] = scores[0]
        sets.append(scores)
    return sets


def fixture_runs():
    """Graph/model pairs whose explanation fronts back the selection checks."""
    chain = build_graph(
        [[1.0], [0.0], [0.0], [0.0]], [(0, 1), (1, 2), (2, 3)], labels=[1, 0, 0, 0]
    )
    link = Model(layers=(np.array([[1.0]]), np.array([[1.0, 0.0]])), activation="sigmoid")
    triangle = build_graph(
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [(0, 1), (0, 2), (1, 2)], labels=[0, 1, 0]
    )
    eye = Model(layers=(np.eye(2), np.eye(2)), activation="relu")
    runs = [(chain, link, range(4)), (triangle, eye, range(3))]
    for kind in ("chain", "star", "planted-motif", "erdos"):
        g, m = synth_graph(kind, seed=5)
        runs.append((g, m, range(min(6, g.node_count))))
    return runs


@reported("criterion 1, enumeration exactness")
def test_enumeration_exactness():
    rng = np.random.default_rng(91)
    started = time.perf_counter()
    graphs = 0
    checked = 0
    while graphs < 200:
        g = random_graph(rng, max_nodes=8, edge_prob=0.4)
        target = int(rng.integers(0, g.node_count))
        records = tree_records(g, target, max_edges=4)
        graphs += 1
        for max_nodes in (2, 3, 4, 5):
            for diameter in (1, 2, 3):
                enum = enumerate_at(
                    g, target, EnumConfig(max_nodes=max_nodes, diameter=diameter)
                )
                keys = [s.edge_set for s in subgraphs(enum)]
                assert len(keys) == len(set(keys)), "duplicate tree emitted"
                expected = {
                    subset
                    for subset, node_count, radius in records
                    if node_count <= max_nodes and radius <= diameter
                }
                assert set(keys) == expected
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    return f"{graphs} graphs x {checked // graphs} configs in {elapsed:.2f}s"


@reported("criterion 2, rank-sum choice never dominated")
def test_comprehensive_selection_never_dominated():
    violations = 0
    for scores in fuzz_scores():
        sel = select_comprehensive(scores)
        chosen = scores[sel.selected]
        if any(dominates(other, chosen) for other in scores):
            violations += 1
    assert violations == 0
    fixtures = 0
    for graph, model, nodes in fixture_runs():
        for node in nodes:
            res = explain_node(model, graph, node)
            if res.front is None:
                continue
            scores = list(zip(res.scorer.simulatability[res.front.e], np.abs(res.front.relevance)))
            chosen = scores[res.front.selected]
            assert not any(dominates(other, chosen) for other in scores)
            fixtures += 1
    return f"1000 fuzz sets + {fixtures} fixture fronts"


@reported("criterion 3, front flags equal the all-pairs oracle")
def test_pareto_front_oracle():
    for scores in fuzz_scores():
        first, second = np.array(scores, dtype=float).T
        assert _front(_ranks(first), _ranks(second)).tolist() == pareto_oracle(scores)
    return "1000 fuzz sets"


@reported("criterion 4, nested-sum expansion equals the forward pass")
def test_sem_expansion_matches_forward():
    rng = np.random.default_rng(402)
    worst = 0.0
    for trial in range(500):
        if trial % 2 == 0:
            g = sem_chain(float(rng.uniform(-4, 4)))
            feature_dim = 1
        else:
            # random tree: each new node attaches to a uniformly chosen earlier one
            n = int(rng.integers(2, 8))
            feature_dim = int(rng.integers(1, 4))
            edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
            g = build_graph(rng.normal(size=(n, feature_dim)).tolist(), edges)
        hidden = int(rng.integers(1, 4))
        classes = int(rng.integers(1, 4))
        m = Model(
            layers=(
                rng.normal(size=(feature_dim, hidden)),
                rng.normal(size=(hidden, classes)),
            ),
            activation=("relu", "sigmoid", "identity")[int(rng.integers(0, 3))],
            self_loop=bool(rng.integers(0, 2)),
            mean_aggregate=bool(rng.integers(0, 2)),
            final_activation=bool(rng.integers(0, 2)),
        )
        v = int(rng.integers(0, g.node_count))
        gap = float(np.max(np.abs(sem_expand_check(m, g, v) - hidden_at(m, g, v))))
        worst = max(worst, gap)
        assert gap <= 1e-12
    return f"500 models, worst gap {worst:.2e}"


@reported("criterion 5, chain confounders and retained-neighbor effect")
def test_confounder_chain_example():
    m = sem_model()
    g0 = sem_chain(0.0)
    enum = enumerate_at(g0, 2)
    position = index(enum)
    removed = enum.removed_nodes(position[(0, 1, 2)], position[(1, 2)])
    assert removed == [0]
    assert confounder_set(enum.ball, 2, removed) == {1, 3}

    def delta(t):
        g = sem_chain(t)
        expl = restricted_hidden_tree(m, g, 2, make_subgraph(g, 2, [0, 1, 2]))
        cf = restricted_hidden_tree(m, g, 2, make_subgraph(g, 2, [1, 2]))
        return float(expl[0] - cf[0])

    d0, d5 = delta(0.0), delta(5.0)
    assert d0 == 0.031973297792568744
    assert d5 == 0.014863371968424022
    assert d0 != d5
    return f"confounders {{1, 3}}, delta {d0:.6f} vs {d5:.6f}"


@reported("criterion 6, metric identities")
def test_metric_identities():
    rng = np.random.default_rng(6)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        assert abs(simulatability(p, p)) <= 1e-7
        assert simulatability(p, p) == 0.0
        assert simulatability(p, q) == simulatability(q, p)
    return "200 distribution pairs"


def rotation_scene(rotated):
    third = [1.5, np.sqrt(6.75)] if rotated else [0.0, 3.0]
    features = [[0.1, 0.0], [1.0, 4.0], [1.0, -4.0], third, [-third[0], -third[1]]]
    graph = build_graph(features, [(0, 1), (0, 2), (0, 3), (0, 4)])
    model = Model(layers=(np.eye(2),), activation="relu")
    return graph, model


@reported("criterion 7, selection stable under feature rotation")
def test_rotation_scenario_contrast():
    config = EnumConfig(max_nodes=3, diameter=1)
    base_graph, base_model = rotation_scene(False)
    base_prediction = forward_at(base_model, base_graph, 0)
    for rotated in (False, True):
        graph, model = rotation_scene(rotated)
        # the paired opposite neighbors cancel, so the prediction is stable
        assert forward_at(model, graph, 0)[0] == base_prediction[0]
        res = explain_node(model, graph, 0, config)
        assert set(explanation(res).node_set) == {0, 1, 2}, f"rotated={rotated}"
        sel = res.front.selected
        assert res.front.sim_ranks[sel] == 1 and res.front.rel_ranks[sel] == 1
    graph, model = rotation_scene(True)
    ball = canonical_order(graph, 0, 1)
    grown = subgraph(grow_table(grad_weights_analytic(model, ball, 1), ball, 3), -1)
    assert 3 in grown.node_set
    before_graph, before_model = rotation_scene(False)
    ball = canonical_order(before_graph, 0, 1)
    before = subgraph(grow_table(grad_weights_analytic(before_model, ball, 1), ball, 3), -1)
    assert set(before.node_set) == {0, 1, 2}
    return "rank choice {0,1,2} both sides; gradient growth flips to node 3"


@reported("criterion 8, finite differences confirm the closed form")
def test_finite_difference_matches_analytic():
    rng = np.random.default_rng(88)
    models = 0
    compared = 0
    while models < 100:
        n = int(rng.integers(3, 8))
        feature_dim = int(rng.integers(1, 4))
        classes = int(rng.integers(2, 4))
        g = random_graph(rng, max_nodes=n, min_nodes=3, feature_dim=feature_dim)
        g = build_graph(np.abs(np.asarray(g.features)).tolist(), list(g.edges))
        target_class = int(rng.integers(0, classes))
        w = np.zeros((feature_dim, classes))
        w[:, target_class] = rng.uniform(0.2, 1.2, size=feature_dim)
        m = Model(layers=(w,))
        v = int(rng.integers(0, g.node_count))
        if int(np.argmax(forward_at(m, g, v))) != target_class:
            continue
        models += 1
        ball = canonical_order(g, v, 1)
        analytic = grad_weights_analytic(m, ball, 1)
        fd = grad_weights_fd(m, ball, 1e-4, 1)
        for eid, expected in analytic.items():
            if expected < 1e-8:
                continue
            assert fd[eid] == pytest.approx(expected, rel=1e-3)
            compared += 1
    return f"100 models, {compared} edge weights compared"


@reported("criterion 9, per-node runtime at working scale")
def test_runtime_at_scale():
    graph, model = synth_graph(
        "erdos", {"nodes": 80, "p": 0.08, "max_degree": 10, "classes": 3}, seed=17
    )
    assert max(degree(graph, v) for v in range(graph.node_count)) <= 10
    rng = np.random.default_rng(18)
    nodes = rng.choice(graph.node_count, size=30, replace=False)
    timings = []
    for node in nodes:
        started = time.perf_counter()
        explain_node(model, graph, int(node), EnumConfig(max_nodes=4, diameter=2))
        timings.append(time.perf_counter() - started)
    worst = max(timings)
    median = statistics.median(timings)
    assert worst < 3.0, f"slowest node took {worst:.2f}s"
    assert median < 0.5, f"median {median:.3f}s"
    return f"30 nodes, worst {worst * 1000:.0f}ms, median {median * 1000:.1f}ms"


@reported("criterion 10, attribution equals brute-force re-enumeration")
def test_shapley_matches_bruteforce():
    rng = np.random.default_rng(1010)
    compared = 0
    for _ in range(150):
        g = random_graph(rng, max_nodes=6)
        m = random_model(rng)
        v = int(rng.integers(0, g.node_count))
        ours = shapley_values(m, g, v, EnumConfig(max_nodes=4, diameter=2))
        ref = shapley_oracle(m, g, v, 4, 2)
        assert set(ours) == set(ref)
        for node, (value, support) in ref.items():
            assert ours[node].support_count == support
            assert abs(ours[node].value - value) <= 1e-12
            compared += 1
    return f"150 graphs, {compared} node attributions"


@reported("criterion 11, outputs identical for 1 or 4 workers")
def test_cli_determinism_across_jobs(tmp_path):
    graph, model = synth_graph("erdos", {"nodes": 14, "p": 0.25, "classes": 3}, seed=23)
    graph_path = tmp_path / "graph.json"
    weights_path = tmp_path / "weights.json"
    save_graph(graph, graph_path)
    save_model(model, weights_path)
    outputs = {}
    for jobs in (1, 4):
        out = tmp_path / f"jobs{jobs}"
        argv = ["explain", "--graph", str(graph_path), "--weights", str(weights_path), "--out", str(out)]
        code = explain_command(build_parser("explain").parse_args(argv + ["--seed", "99", "--jobs", str(jobs)]))
        assert code == 0
        blobs = {}
        for path in sorted(out.iterdir()):
            text = path.read_text()
            text = re.sub(r'"generated_at": "[^"]*"', '"generated_at": null', text)
            blobs[path.name] = text
        outputs[jobs] = blobs
    assert outputs[1].keys() == outputs[4].keys()
    for name in outputs[1]:
        assert outputs[1][name] == outputs[4][name], f"{name} differs"
    return f"{len(outputs[1])} documents byte-identical"
