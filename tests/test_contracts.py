"""Contracts of the public surface: one propagation loop, finite inputs, NaN-safe ranking,
checked option ranges, per-node errors, and traced boundaries that exist."""

import csv
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import moexp
from moexp import CandidateScorer, Model, build_graph, canonical_order, enumerate_subgraphs, explain_node
from moexp.cli import RunConfig, main
from moexp.gcn import forward, forward_hidden, node_embeddings
from moexp.io import FormatError, graph_to_doc, load_model, model_to_doc, parse_graph, save_graph, save_model
from moexp.pareto import competition_ranks, pareto_front
from moexp.synth import synth_graph

from oracles import masked_loss


def test_every_exported_name_resolves():
    missing = [name for name in moexp.__all__ if not hasattr(moexp, name)]
    assert missing == []


@pytest.mark.parametrize(
    "variant",
    [{}, {"self_loop": False}, {"mean_aggregate": True}, {"final_activation": True, "activation": "sigmoid"}],
)
def test_node_embeddings_match_forward_hidden_bitwise(variant):
    graph, model = synth_graph("erdos", {"nodes": 40, "p": 0.12}, 5)
    fields = dict(activation=model.activation, self_loop=model.self_loop)
    fields.update(variant)
    model = Model(layers=model.layers, **fields)
    for v in range(graph.node_count):
        # One hop more than the depth: the rows of v and its neighbors are exact.
        ball = canonical_order(graph, v, model.depth + 1)
        states = node_embeddings(model, ball, model.depth)
        assert len(states) == ball.within[1]
        for i, u in enumerate(ball.nodes[: ball.within[1]]):
            assert states[i].tobytes() == forward_hidden(model, graph, u).tobytes()


def test_unmasked_loss_equals_empty_mask_loss_bitwise():
    graph, model = synth_graph("erdos", {"nodes": 30, "p": 0.15}, 9)
    for v in range(graph.node_count):
        probs = forward(model, graph, v)
        y = int(np.argmax(probs))
        assert float(-np.log(probs[y])) == masked_loss(model, graph, v, y, {})


def test_competition_ranks_rejects_nan():
    with pytest.raises(ValueError, match="non-finite score at index 1: nan"):
        competition_ranks([1.0, float("nan")])


@pytest.mark.parametrize("scores", [[(float("nan"), 1.0)], [(1.0, 2.0), (0.5, float("nan"))]])
def test_pareto_front_rejects_nan(scores):
    with pytest.raises(ValueError, match="non-finite score"):
        pareto_front(scores)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_parse_graph_rejects_non_finite_features(bad):
    graph, _ = synth_graph("chain", {"nodes": 3}, 0)
    doc = graph_to_doc(graph)
    doc["nodes"][2]["features"][0] = bad
    with pytest.raises(FormatError, match=r"nodes\[2\]: features must be finite"):
        parse_graph(doc)


@pytest.mark.parametrize("text", ["NaN", "Infinity"])
def test_load_model_rejects_non_finite_weights(tmp_path, text):
    _, model = synth_graph("chain", {"nodes": 3}, 0)
    doc = model_to_doc(model)
    doc["layers"][1]["data"][0] = "BAD"
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc).replace('"BAD"', text))
    with pytest.raises(FormatError, match=r"layers\[1\]: weights must be finite"):
        load_model(path)


def test_overflowing_features_give_an_error_document(tmp_path):
    # 1e308 is finite, but the aggregation overflows; the forward pass
    # raises instead of handing NaN distributions on to ranking.
    graph, model = synth_graph("planted-motif", {}, 7)
    doc = graph_to_doc(graph)
    doc["nodes"][1]["features"] = [1e308] * graph.feature_dim
    (tmp_path / "g.json").write_text(json.dumps(doc))
    save_model(model, tmp_path / "w.json")
    code = "import sys; from moexp.cli import main; sys.exit(main(sys.argv[1:]))"
    args = ["explain", "--graph", "g.json", "--weights", "w.json", "--targets", "0", "--out", "out"]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(moexp.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1, proc.stderr
    written = json.loads((tmp_path / "out" / "node_0.json").read_text())
    assert written["error"] == "ValueError: forward pass at node 0: overflow encountered in add"


def test_a_tree_that_overflows_fails_its_node_with_the_pass_error(tmp_path):
    # One identity layer; the target's neighbours carry +1e308, -1e308 and
    # +1e308. Summed in id order the full neighbourhood cancels, so the
    # reference pass is finite, but the tree holding both positive
    # neighbours overflows inside the batch of its size.
    graph = build_graph([[0.0, 0.0], [1e308, 0.0], [-1e308, 0.0], [1e308, 0.0]], [(0, 1), (0, 2), (0, 3)])
    model = Model(layers=(np.eye(2),), activation="identity")
    assert np.isfinite(forward(model, graph, 0)).all()
    message = "forward pass at node 0: overflow encountered in add"
    for method in ("pareto-rank", "balanced", "shapley"):
        with pytest.raises(ValueError, match=f"^{message}$"):
            explain_node(model, graph, 0, method=method)
    save_graph(graph, tmp_path / "g.json")
    save_model(model, tmp_path / "w.json")
    argv = ["explain", "--graph", str(tmp_path / "g.json"), "--weights", str(tmp_path / "w.json")]
    assert main(argv + ["--targets", "0", "--out", str(tmp_path / "out")]) == 1
    written = json.loads((tmp_path / "out" / "node_0.json").read_text())
    assert written["error"] == f"ValueError: {message}"


def test_overflowing_features_fail_shapley_without_a_csv(tmp_path, capsys):
    # The same input as above: no NaN attribution rows may be written.
    graph, model = synth_graph("planted-motif", {}, 7)
    doc = graph_to_doc(graph)
    doc["nodes"][1]["features"] = [1e308] * graph.feature_dim
    (tmp_path / "g.json").write_text(json.dumps(doc))
    save_model(model, tmp_path / "w.json")
    argv = ["shapley", "--graph", str(tmp_path / "g.json"), "--weights", str(tmp_path / "w.json")]
    assert main(argv + ["--targets", "0", "--out", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err == "error: forward pass at node 0: overflow encountered in add\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "command,reads_seed",
    [("explain", True), ("robustness", True), ("synth", True), ("enumerate", False), ("shapley", False)],
)
def test_moexp_seed_is_read_by_seeded_commands_only(command, reads_seed, fixtures_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("MOEXP_SEED", "not-a-seed")
    graph, weights = str(fixtures_dir / "chain4.json"), str(fixtures_dir / "chain4_weights.json")
    if command == "synth":
        argv = ["synth", "--kind", "chain", "--out-graph", str(tmp_path / "g.json")]
        argv += ["--out-weights", str(tmp_path / "w.json")]
    else:
        argv = [command, "--graph", graph, "--targets", "2", "--out", str(tmp_path / "out")]
        if command != "enumerate":
            argv += ["--weights", weights]
    assert main(argv) == (1 if reads_seed else 0)


def test_every_traced_span_resolves():
    # A renamed boundary would silently zero its per-layer benchmark metrics.
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer() as tracer:
        assert tracer.absent == []


def test_traced_boundaries_see_every_document(fixtures_dir, tmp_path):
    # A writer that bypassed io.dump_json would read 0 KiB per node, silently.
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    out = tmp_path / "out"
    argv = ["explain", "--graph", str(fixtures_dir / "chain4.json"), "--weights", str(fixtures_dir / "chain4_weights.json")]
    with tracing.Tracer() as tracer:
        assert main(argv + ["--out", str(out)]) == 0
    files = list(out.glob("node_*.json"))
    assert len(files) == 4
    assert tracer.calls["cli.document"] == tracer.calls["io.dump"] == len(files)
    assert tracer.counts["io.out_bytes"] == sum(p.stat().st_size for p in files)


@pytest.mark.parametrize("epsilon", [-0.5, 0.0, 1.0, 1.5])
def test_epsilon_outside_unit_interval_is_rejected(epsilon, chain_graph, chain_model):
    message = re.escape(f"epsilon must be in (0, 1): {epsilon}")
    with pytest.raises(ValueError, match=message):
        CandidateScorer(chain_model, chain_graph, enumerate_subgraphs(chain_graph, 2), epsilon)
    with pytest.raises(ValueError, match=message):
        explain_node(chain_model, chain_graph, 2, epsilon=epsilon)


@pytest.mark.parametrize("command", ["explain", "shapley", "robustness"])
def test_epsilon_outside_unit_interval_fails_the_command(command, fixtures_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--graph", str(fixtures_dir / "chain4.json"), "--weights", str(fixtures_dir / "chain4_weights.json")]
    assert main(argv + ["--targets", "2", "--epsilon", "-0.5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if command == "explain":
        doc = json.loads((out / "node_2.json").read_text())
        assert doc["error"] == "ValueError: epsilon must be in (0, 1): -0.5"
    elif command == "shapley":
        assert err == "error: epsilon must be in (0, 1): -0.5\n"
        assert not out.exists()
    else:
        assert err == "node 2: ValueError: epsilon must be in (0, 1): -0.5\n"
        assert len(list(csv.reader(out.read_text().splitlines()))) == 1


def test_jobs_below_one_is_rejected(fixtures_dir, tmp_path, capsys):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        RunConfig("g.json", "w.json", "out", jobs=0)
    argv = ["explain", "--graph", str(fixtures_dir / "chain4.json"), "--weights", str(fixtures_dir / "chain4_weights.json")]
    assert main(argv + ["--targets", "2", "--jobs", "-5", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: jobs must be at least 1\n"
    assert not (tmp_path / "out").exists()


def test_robustness_keeps_the_rows_of_nodes_that_succeed(tmp_path, capsys):
    # Node 1 predicts class 1, whose weight column is zero: its message sweep
    # has no class direction to align with. Node 0 is unaffected.
    save_graph(build_graph([[1.0], [-1.0]], []), tmp_path / "g.json")
    save_model(Model(layers=(np.array([[1.0, 0.0]]),)), tmp_path / "w.json")
    argv = ["robustness", "--graph", str(tmp_path / "g.json"), "--weights", str(tmp_path / "w.json")]
    argv += ["--mode", "message", "--steps", "2"]
    assert main(argv + ["--targets", "0,1", "--out", str(tmp_path / "both.csv")]) == 1
    assert capsys.readouterr().err == "node 1: ValueError: degenerate class direction: zero-norm class column\n"
    assert main(argv + ["--targets", "0", "--out", str(tmp_path / "alone.csv")]) == 0
    rows = list(csv.reader((tmp_path / "both.csv").read_text().splitlines()))
    assert [r[0] for r in rows[1:]] == ["0", "0"]
    assert (tmp_path / "both.csv").read_text() == (tmp_path / "alone.csv").read_text()
    # A bad option is still one error for the whole run, not one per node.
    argv[-1] = "1"
    assert main(argv + ["--targets", "0,1", "--out", str(tmp_path / "none.csv")]) == 1
    assert capsys.readouterr().err == "error: steps must be at least 2\n"
    assert not (tmp_path / "none.csv").exists()


# Run in a fresh interpreter: the modules loaded by ``import moexp.cli`` and
# those explain loads after it.
_IMPORT_PROBE = """
import json, sys
from moexp import cli
before = set(sys.modules)
for method in sys.argv[1:]:
    argv = ["explain", "--graph", "g.json", "--weights", "w.json", "--targets", "0,1,2,5"]
    if cli.main(argv + ["--method", method, "--jobs", "1", "--out", "out-" + method]) != 0:
        sys.exit("explain --method %s failed" % method)
print(json.dumps([sorted(before), sorted(set(sys.modules) - before)]))
"""


def _within(names, packages) -> list:
    return [m for m in names if m in packages or m.startswith(tuple(p + "." for p in packages))]


def test_explain_imports_only_what_its_run_uses(tmp_path):
    graph, model = synth_graph("planted-motif", {}, 7)
    save_graph(graph, tmp_path / "g.json")
    save_model(model, tmp_path / "w.json")
    methods = ["pareto-rank", "balanced", "shapley", "grad-fd", "grad-analytic"]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(moexp.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *methods], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    at_import, loaded = json.loads(proc.stdout.splitlines()[-1])
    # numpy.ma (np.unique loads it on numpy 2) and numpy.random (only method
    # random draws) are checked against what the import loaded, so numpy
    # 1.x, which loads both with numpy itself, passes too.
    assert _within(loaded, ("numpy.ma", "numpy.random")) == []
    # The thread pool, which loads logging, is for --jobs above 1 only.
    assert _within(at_import + loaded, ("concurrent.futures",)) == []
