"""Contracts of the public surface: one propagation loop, finite inputs, NaN-safe ranking."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import moexp
from moexp import Model
from moexp.cli import main
from moexp.gcn import forward, forward_hidden, masked_loss, node_embeddings
from moexp.io import FormatError, graph_to_doc, load_model, model_to_doc, parse_graph, save_model
from moexp.pareto import competition_ranks, pareto_front
from moexp.synth import synth_graph


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
    states = node_embeddings(model, graph, model.depth)
    for v in range(graph.node_count):
        assert states[v].tobytes() == forward_hidden(model, graph, v).tobytes()


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
    # 1e308 is finite, but the aggregation overflows and every distribution
    # comes out NaN; ranking used to spin forever on the NaN scores.
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
    assert written["error"] == "ValueError: non-finite score at index 0: nan"


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
