import builtins
import csv
import hashlib
import io as stdio
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moexp
from moexp import Model, build_graph
from moexp.cli import build_parser, explain_command, main, top_count
from moexp.commands import enumerate_command, robustness_command, shapley_command
from moexp.io import (
    FormatError,
    _read_json,
    dump_json,
    graph_to_doc,
    load_edge_weights,
    load_graph,
    load_model,
    model_to_doc,
    parse_graph,
    run_manifest,
    save_edge_weights,
    save_graph,
    save_model,
    write_csv,
)

import oracles


def chain_paths(fixtures_dir):
    return str(fixtures_dir / "chain4.json"), str(fixtures_dir / "chain4_weights.json")


def parsed(command, graph_path, weights_path, out, *flags):
    """The parsed arguments of ``command`` on these inputs, with the parser's defaults."""
    argv = [command, "--graph", str(graph_path), "--weights", str(weights_path), "--out", str(out), *flags]
    return build_parser(command).parse_args(argv)


def test_graph_round_trip(tmp_path, chain_graph):
    path = tmp_path / "g.json"
    save_graph(chain_graph, path)
    assert oracles.same_graph(load_graph(path), chain_graph)
    assert load_graph(path).labels == (1, 0, 0, 0)


def test_graph_round_trip_without_labels(tmp_path):
    g = build_graph([[0.5, 1.5], [2.0, 0.0]], [(0, 1)])
    path = tmp_path / "g.json"
    save_graph(g, path)
    back = load_graph(path)
    assert oracles.same_graph(back, g)
    assert back.labels is None


def test_parse_graph_rejects_directed():
    doc = graph_to_doc(build_graph([[1.0]], []))
    doc["directed"] = True
    with pytest.raises(FormatError, match="directed"):
        parse_graph(doc)


def test_parse_graph_requires_dense_ids():
    doc = {
        "directed": False,
        "nodes": [{"id": 0, "features": [1.0]}, {"id": 2, "features": [1.0]}],
        "edges": [],
    }
    with pytest.raises(FormatError, match="dense"):
        parse_graph(doc)


def test_parse_graph_reports_bad_node_with_context():
    doc = {
        "directed": False,
        "nodes": [{"id": 0, "features": [1.0]}, {"id": 1}],
        "edges": [],
    }
    with pytest.raises(FormatError, match=r"nodes\[1\]"):
        parse_graph(doc)


def test_parse_graph_feature_width_mismatch():
    doc = {
        "directed": False,
        "nodes": [{"id": 0, "features": [1.0]}, {"id": 1, "features": [1.0, 2.0]}],
        "edges": [],
    }
    with pytest.raises((FormatError, ValueError)):
        parse_graph(doc)


def test_parse_graph_bad_edge_endpoint():
    doc = {
        "directed": False,
        "nodes": [{"id": 0, "features": [1.0]}],
        "edges": [[0, 3]],
    }
    with pytest.raises((FormatError, ValueError)):
        parse_graph(doc)


def test_model_round_trip_with_flags(tmp_path):
    m = Model(
        layers=(np.arange(6, dtype=float).reshape(2, 3), np.ones((3, 2))),
        activation="identity",
        self_loop=False,
        mean_aggregate=True,
        final_activation=True,
    )
    path = tmp_path / "m.json"
    save_model(m, path)
    back = load_model(path)
    assert back.activation == "identity"
    assert back.self_loop is False
    assert back.mean_aggregate is True
    assert back.final_activation is True
    for a, b in zip(back.layers, m.layers):
        assert np.array_equal(a, b)


def test_model_activation_enum_is_closed():
    with pytest.raises(ValueError, match="unknown activation"):
        Model(layers=(np.eye(2),), activation="tanh")


def test_model_doc_omits_default_flags(chain_model):
    doc = model_to_doc(chain_model)
    assert "mean_aggregate" not in doc
    assert "final_activation" not in doc
    assert doc["self_loop"] is True
    assert isinstance(doc["self_loop"], bool)


def test_edge_weights_round_trip(tmp_path):
    path = tmp_path / "w.json"
    save_edge_weights({0: 0.25, 3: 1.5}, path)
    assert load_edge_weights(path) == {0: 0.25, 3: 1.5}
    raw = json.loads(path.read_text())
    assert raw == {"0": 0.25, "3": 1.5}


def test_loaders_record_the_sha256_of_the_bytes_they_parse(tmp_path, fixtures_dir):
    path = tmp_path / "e.json"
    data = b'{"3": 0.5,\r\n "12": 1}\r\n'
    path.write_bytes(data)
    digests = {}
    assert load_edge_weights(path, digests) == {3: 0.5, 12: 1.0}
    graph_path, weights_path = chain_paths(fixtures_dir)
    load_graph(graph_path, digests)
    load_model(weights_path, digests)
    assert digests == {
        path: hashlib.sha256(data).hexdigest(),
        graph_path: hashlib.sha256(pathlib.Path(graph_path).read_bytes()).hexdigest(),
        weights_path: hashlib.sha256(pathlib.Path(weights_path).read_bytes()).hexdigest(),
    }


def text_mode_read(path):
    """The document, or the error text, that a text-mode ``json.load`` of
    ``path`` gives: the reference for the loaders' reader of bytes."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            return f"{path}: not a JSON document: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([b"{", b"}", b"[", b"]", b'"', b":", b",", b"1", b"-2.5e3", b"a", b"\xc3\xa9",
                                 b"\xff", b"\xc3", b"\r", b"\n", b"\r\n", b" ", "\ufeff".encode()]),
                max_size=24))
def test_inputs_read_as_the_document_or_error_of_a_text_mode_read(tmp_path_factory, pieces):
    # Bytes and a text-mode read decode the same, and the newlines a text-mode
    # read translates move the line and column an error names.
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_bytes(b"".join(pieces))
    try:
        got = _read_json(path)
    except FormatError as exc:
        got = str(exc)
    assert got == text_mode_read(path)


def test_run_manifest_structure():
    # The manifest records the digests it is given and reads no file: these paths do not exist.
    inputs = {"graph": "absent/graph.json", "weights": "absent/weights.json"}
    digests = {"absent/graph.json": "ab" * 32, "absent/weights.json": "cd" * 32}
    manifest = run_manifest(seed=7, config={"max_nodes": 4}, inputs=inputs, digests=digests)
    assert manifest["tool"] == "moexp 0.1.0"
    assert manifest["prng"] == "numpy PCG64"
    assert manifest["seed"] == 7
    assert manifest["config"] == {"max_nodes": 4}
    assert manifest["inputs"] == {
        "graph": {"path": "absent/graph.json", "sha256": "ab" * 32},
        "weights": {"path": "absent/weights.json", "sha256": "cd" * 32},
    }
    assert "T" in manifest["generated_at"]


def test_dump_json_stable_bytes(tmp_path):
    doc = {"b": np.float64(1.5), "a": np.int64(2), "flag": np.bool_(True), "arr": np.arange(3)}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(doc, p1)
    dump_json(doc, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"arr"') < text.index('"b"')
    parsed = json.loads(text)
    assert parsed["flag"] is True
    assert parsed["arr"] == [0, 1, 2]


def test_write_csv_unix_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "y"], [[1, "a"], [2, "b"]])
    assert path.read_bytes() == b"x,y\n1,a\n2,b\n"


def test_explain_document_contents(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    code = explain_command(parsed("explain", graph_path, weights_path, tmp_path, "--targets", "2"))
    assert code == 0
    doc = json.loads((tmp_path / "node_2.json").read_text())
    assert doc["schema"] == "moexp/1"
    assert doc["node"] == 2
    assert doc["method"] == "pareto-rank"
    assert doc["predicted_class"] == 0
    assert doc["full_distribution"][0] == 0.8495477739862124
    assert doc["candidate_count"] == 6
    assert doc["pair_count"] == 6
    assert doc["explanation"]["edge_ids"] == [1]
    assert doc["explanation"]["nodes"] == [1, 2]
    assert doc["explanation"]["simulatability"] == -0.08662254246870793
    assert doc["counterfactual"]["edge_ids"] == []
    assert doc["removed_nodes"] == [1]
    assert doc["cf_relevance"] == 0.1929366323464467
    assert doc["rank_sum"] == 6
    assert doc["sim_rank"] == 5
    assert doc["cf_rank"] == 1
    assert doc["on_front"] is True
    assert doc["front_size"] == 4
    assert doc["confounders"] == [0, 3]
    assert len(doc["top_pairs"]) == 6
    sums = [p["rank_sum"] for p in doc["top_pairs"]]
    assert sums == sorted(sums)
    assert doc["manifest"]["seed"] == 42
    assert doc["manifest"]["config"]["method"] == "pareto-rank"


def test_explain_top_percent_truncates(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    explain_command(parsed("explain", graph_path, weights_path, tmp_path, "--targets", "2", "--top-percent", "50"))
    doc = json.loads((tmp_path / "node_2.json").read_text())
    assert len(doc["top_pairs"]) == 3  # ceil(50% of 6)


def test_top_count_is_exact():
    assert top_count(7.0, 100) == 7  # 7 / 100.0 * 100 == 7.000000000000001
    assert top_count(0.1, 1000) == 1
    assert top_count(2.5, 100) == 3
    assert top_count(12.5, 8) == 1
    assert top_count(1.0, 5) == 1
    # The percents the goldens and benchmark workloads use count as before.
    for percent in (1.0, 50.0, 100.0):
        assert all(top_count(percent, m) == max(1, math.ceil(percent / 100.0 * m)) for m in range(1, 20001))


# The smallest and largest percents, short decimals, and floats whose repr
# has 17 digits (0.1 + 0.2 prints as 0.30000000000000004, so 1000 pairs
# give 4, not 3).
_EDGE_PERCENTS = [1e-05, 5e-324, 0.1, 7.0, 100.0, 0.1 + 0.2, math.nextafter(7.0, 8.0), math.nextafter(100.0, 0.0)]


@given(
    st.floats(min_value=0.0, max_value=100.0, exclude_min=True) | st.sampled_from(_EDGE_PERCENTS),
    st.integers(min_value=0, max_value=10**7),
)
@settings(max_examples=500, deadline=None)
def test_top_count_matches_the_fraction_oracle(percent, pairs):
    # Integer arithmetic on the digits of repr(percent), against Fraction(str(percent)).
    assert top_count(percent, pairs) == oracles.top_count(percent, pairs)


@pytest.mark.parametrize("percent", _EDGE_PERCENTS)
def test_top_count_matches_the_fraction_oracle_at_the_edges(percent):
    for pairs in (0, 1, 3, 7, 100, 1000, 99_999, 10**7 - 1, 10**7):
        assert top_count(percent, pairs) == oracles.top_count(percent, pairs)


def test_explain_top_percent_7_of_100_pairs(tmp_path):
    # A 100-leaf star at C=2 pairs each one-edge tree with the bare hub.
    save_graph(build_graph([[1.0]] + [[0.5]] * 100, [(0, i) for i in range(1, 101)]), tmp_path / "g.json")
    save_model(Model(layers=(np.array([[1.0]]), np.array([[1.0, -1.0]]))), tmp_path / "w.json")
    argv = ["explain", "--graph", str(tmp_path / "g.json"), "--weights", str(tmp_path / "w.json"), "--targets", "0"]
    assert main(argv + ["-C", "2", "-D", "1", "--top-percent", "7", "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "node_0.json").read_text())
    assert doc["pair_count"] == 100
    assert len(doc["top_pairs"]) == 7


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_output_files_take_the_mode_of_the_umask(umask, mode, tmp_path, fixtures_dir):
    # Set in a child, so this process's umask never changes.
    graph_path, weights_path = chain_paths(fixtures_dir)
    package_root = str(pathlib.Path(moexp.__file__).resolve().parent.parent)
    script = f"""
import os, sys
os.umask({umask})
from moexp.cli import main
g, w = {graph_path!r}, {weights_path!r}
codes = [
    main(["explain", "--graph", g, "--weights", w, "--targets", "2,9", "--keep-going", "--out", "docs"]),
    main(["enumerate", "--graph", g, "--targets", "2", "--out", "c.csv"]),
    main(["synth", "--kind", "chain", "--out-graph", "g.json", "--out-weights", "w.json"]),
]
sys.exit(max(codes))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    written = ["docs/node_2.json", "docs/node_9.json", "c.csv", "g.json", "w.json"]
    assert "error" in json.loads((tmp_path / "docs/node_9.json").read_text())
    assert {name: stat.S_IMODE((tmp_path / name).stat().st_mode) for name in written} == dict.fromkeys(written, mode)


def test_explain_all_test_targets(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    explain_command(parsed("explain", graph_path, weights_path, tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["node_0.json", "node_1.json", "node_2.json", "node_3.json"]


def test_explain_unlabeled_graph_targets_every_node(tmp_path, fixtures_dir):
    g = build_graph([[1.0], [0.0], [0.0]], [(0, 1), (1, 2)])
    graph_path = tmp_path / "g.json"
    save_graph(g, graph_path)
    out = tmp_path / "out"
    explain_command(parsed("explain", graph_path, fixtures_dir / "chain4_weights.json", out))
    assert sorted(p.name for p in out.iterdir()) == ["node_0.json", "node_1.json", "node_2.json"]


def test_explain_bad_target_writes_error_doc(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    code = explain_command(parsed("explain", graph_path, weights_path, tmp_path, "--targets", "99"))
    assert code == 1
    doc = json.loads((tmp_path / "node_99.json").read_text())
    assert doc["node"] == 99
    assert "error" in doc
    assert "manifest" in doc


def test_explain_keep_going_masks_failures(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    code = explain_command(parsed("explain", graph_path, weights_path, tmp_path, "--targets", "2,99", "--keep-going"))
    assert code == 0
    good = json.loads((tmp_path / "node_2.json").read_text())
    assert "error" not in good
    bad = json.loads((tmp_path / "node_99.json").read_text())
    assert "error" in bad


def test_explain_unparseable_target_rejected(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    with pytest.raises(ValueError, match="bad target id"):
        explain_command(parsed("explain", graph_path, weights_path, tmp_path, "--targets", "abc"))


def test_jobs_do_not_change_outputs(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    serial, threaded = tmp_path / "serial", tmp_path / "threaded"
    for out, jobs in ((serial, 1), (threaded, 4)):
        explain_command(parsed("explain", graph_path, weights_path, out, "--jobs", str(jobs)))
    for name in sorted(p.name for p in serial.iterdir()):
        a = json.loads((serial / name).read_text())
        b = json.loads((threaded / name).read_text())
        a["manifest"].pop("generated_at")
        b["manifest"].pop("generated_at")
        assert a == b


def _without_time(text: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)


def _fail_for(target: int, real, target_of, exc_type):
    """``real`` wrapped to raise ``exc_type`` when ``target_of(*args)`` is ``target``."""

    def fake(*args, **kwargs):
        if target_of(*args) == target:
            raise exc_type("injected fault")
        return real(*args, **kwargs)

    return fake


# The per-node functions of an explain run but io.dump_json: the module each
# is looked up in when it is called, and how the target it works for reads
# from its arguments.
_EXPLAIN_STAGES = {
    "canonical_order": ("moexp.pipeline", lambda graph, target, hops: target),
    "enumerate_subgraphs": ("moexp.pipeline", lambda ball, config: ball.target),
    "generate_pairs": ("moexp.pipeline", lambda enumeration, *_: enumeration.ball.target),
    "CandidateScorer.pair": ("moexp.explain", lambda scorer, *_: scorer.enumeration.ball.target),
    "rank_pairs": ("moexp.pipeline", lambda enumeration, *_: enumeration.ball.target),
    "explain_node": ("moexp.cli", lambda model, graph, target, *_: target),
    "node_document": ("moexp.cli", lambda result, *_: result.target),
}


@pytest.mark.parametrize("exc_type", [ValueError, FloatingPointError, MemoryError])
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("stage", [*_EXPLAIN_STAGES, "io.dump_json"])
def test_a_fault_in_one_node_stays_in_that_node(stage, jobs, exc_type, tmp_path, fixtures_dir, monkeypatch, capsys):
    graph_path, weights_path = chain_paths(fixtures_dir)
    argv = ["explain", "--graph", graph_path, "--weights", weights_path, "--targets", "0,1,2", "--jobs", jobs]
    assert main(argv + ["--out", str(tmp_path / "clean")]) == 0
    if stage == "io.dump_json":
        # The node document's write fails at its rename, once its temp file
        # exists; the error document is then written to the same path.
        real, failing = os.replace, []

        def replace(src, dst):
            if dst.endswith("node_1.json") and not failing:
                failing.append(dst)
                raise exc_type("injected fault")
            return real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
    else:
        module, target_of = _EXPLAIN_STAGES[stage]
        owner, _, name = stage.rpartition(".")
        where = getattr(sys.modules[module], owner) if owner else sys.modules[module]
        monkeypatch.setattr(where, name, _fail_for(1, getattr(where, name), target_of, exc_type))
    capsys.readouterr()
    for flags, status in (([], 1), (["--keep-going"], 0)):
        out = tmp_path / f"out{len(flags)}"
        if stage == "io.dump_json":
            failing.clear()
        assert main(argv + ["--out", str(out), *flags]) == status
        assert capsys.readouterr().err == f"node 1: {exc_type.__name__}: injected fault\n1 of 3 nodes failed\n"
        for node in (0, 2):
            name = f"node_{node}.json"
            assert _without_time((out / name).read_text()) == _without_time((tmp_path / "clean" / name).read_text())
        error = json.loads((out / "node_1.json").read_text())
        assert sorted(error) == ["error", "manifest", "node", "schema"]
        assert error["error"] == f"{exc_type.__name__}: injected fault"
        assert sorted(p.name for p in out.iterdir()) == ["node_0.json", "node_1.json", "node_2.json"]
    assert list(tmp_path.rglob(".tmp-*.part")) == []


@pytest.mark.parametrize(
    "command, function, flags",
    [
        ("enumerate", "enumerate_subgraphs", []),
        ("shapley", "shapley_values", []),
        ("robustness", "run_sanity_sweep", ["--mode", "weights"]),
    ],
)
def test_a_failed_node_leaves_the_rows_of_the_others(command, function, flags, tmp_path, fixtures_dir, monkeypatch, capsys):
    graph_path, weights_path = chain_paths(fixtures_dir)
    argv = [command, "--graph", graph_path, *flags] + (["--weights", weights_path] if command != "enumerate" else [])
    assert main(argv + ["--targets", "0,2", "--out", str(tmp_path / "without.csv")]) == 0
    target_of = {
        "enumerate_subgraphs": lambda ball, config: ball.target,
        "shapley_values": lambda model, graph, target, *_: target,
        "run_sanity_sweep": lambda model, graph, targets, *_: targets[0],
    }[function]
    commands = sys.modules["moexp.commands"]
    monkeypatch.setattr(commands, function, _fail_for(1, getattr(commands, function), target_of, FloatingPointError))
    assert main(argv + ["--targets", "0,1,2", "--out", str(tmp_path / "with.csv")]) == 1
    assert capsys.readouterr().err == "node 1: FloatingPointError: injected fault\n1 of 3 nodes failed\n"
    assert (tmp_path / "with.csv").read_text() == (tmp_path / "without.csv").read_text()


def test_an_unwritable_document_fails_its_node_alike_at_every_jobs(tmp_path, fixtures_dir, capsys):
    # node_1.json is a directory: its document and its error document both
    # fail to replace it, and the run goes on to the other nodes.
    graph_path, weights_path = chain_paths(fixtures_dir)
    out = tmp_path / "out"
    (out / "node_1.json").mkdir(parents=True)
    argv = ["explain", "--graph", graph_path, "--weights", weights_path, "--targets", "0,1,2,3", "--keep-going"]
    runs = []
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        # The temp file's name is random; the rest of stderr is not.
        err = re.sub(r"\.tmp-\w+\.part", ".tmp-X.part", capsys.readouterr().err)
        runs.append((sorted(p.name for p in out.iterdir()), err))
        for name in ("node_0.json", "node_2.json", "node_3.json"):
            (out / name).unlink()
    failure = f"IsADirectoryError: [Errno 21] Is a directory: '{out}/.tmp-X.part' -> '{out}/node_1.json'"
    assert runs[0] == runs[1] == (
        ["node_0.json", "node_1.json", "node_2.json", "node_3.json"],
        f"node 1: {failure}\nnode 1: error document not written to {out}/node_1.json: {failure}\n1 of 4 nodes failed\n",
    )
    assert list(out.glob(".tmp-*.part")) == []


def test_enumerate_triangle_has_six_rows(tmp_path, fixtures_dir):
    out = tmp_path / "enum.csv"
    argv = ["enumerate", "--graph", str(fixtures_dir / "triangle.json"), "--out", str(out)]
    code = enumerate_command(build_parser("enumerate").parse_args(argv + ["--targets", "0", "-C", "3", "-D", "2"]))
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["node", "index", "parent", "node_count", "edge_ids", "node_ids"]
    assert len(rows) == 7
    assert rows[1][2] == ""  # the bare-target row has no parent
    assert all(r[0] == "0" for r in rows[1:])


def test_shapley_two_node_graph_single_row(tmp_path, fixtures_dir):
    g = build_graph([[1.0], [0.2]], [(0, 1)])
    graph_path = tmp_path / "pair.json"
    save_graph(g, graph_path)
    out = tmp_path / "shap.csv"
    argv = ["shapley", "--graph", str(graph_path), "--weights", str(fixtures_dir / "chain4_weights.json")]
    code = shapley_command(build_parser("shapley").parse_args(argv + ["--targets", "0", "--out", str(out)]))
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["target", "node", "shapley_value", "support_count"]
    assert len(rows) == 2
    assert rows[1][0] == "0" and rows[1][1] == "1" and rows[1][3] == "1"


def test_robustness_record_grid(tmp_path, fixtures_dir):
    graph_path = str(fixtures_dir / "triangle.json")
    weights_path = str(fixtures_dir / "triangle_weights.json")
    out = tmp_path / "sweep.csv"
    flags = ["--targets", "0,1", "--mode", "message", "--steps", "3", "--seed", "11", "--magnitude", "1.5"]
    code = robustness_command(parsed("robustness", graph_path, weights_path, out, *flags))
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["node", "kind", "strength", "pred_before", "pred_after", "jaccard", "seed"]
    assert len(rows) == 7
    assert [r[0] for r in rows[1:]] == ["0", "0", "0", "1", "1", "1"]


def test_robustness_weights_zero_step_is_inert(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    out = tmp_path / "sweep.csv"
    flags = ["--targets", "2", "--mode", "weights", "--steps", "3", "--seed", "11", "--max-distance", "2.0"]
    robustness_command(parsed("robustness", graph_path, weights_path, out, *flags))
    rows = list(csv.reader(out.read_text().splitlines()))
    first = rows[1]
    assert float(first[2]) == 0.0
    assert first[3] == first[4]
    assert float(first[5]) == 0.0


def test_synth_writes_loadable_deterministic_pair(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        code = main(
            ["synth", "--kind", "planted-motif", "--seed", "7", "--param", "background=8",
             "--out-graph", str(out / "graph.json"), "--out-weights", str(out / "weights.json")]
        )
        assert code == 0
    assert (a / "graph.json").read_bytes() == (b / "graph.json").read_bytes()
    assert (a / "weights.json").read_bytes() == (b / "weights.json").read_bytes()
    g = load_graph(a / "graph.json")
    m = load_model(a / "weights.json")
    assert g.node_count == 12
    assert m.input_dim == oracles.feature_dim(g)


def test_env_seed_overrides_flag(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    env_backup = os.environ.get("MOEXP_SEED")
    os.environ["MOEXP_SEED"] = "777"
    try:
        main(
            ["explain", "--graph", graph_path, "--weights", weights_path,
             "--out", str(tmp_path), "--targets", "2", "--seed", "5"]
        )
    finally:
        if env_backup is None:
            os.environ.pop("MOEXP_SEED", None)
        else:
            os.environ["MOEXP_SEED"] = env_backup
    doc = json.loads((tmp_path / "node_2.json").read_text())
    assert doc["manifest"]["seed"] == 777


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("command", ["explain", "robustness", "synth"])
def test_negative_seed_is_one_error_that_names_its_source(command, source, tmp_path, fixtures_dir, monkeypatch, capsys):
    graph_path, weights_path = chain_paths(fixtures_dir)
    out = tmp_path / "out"
    argv = {
        "explain": ["explain", "--graph", graph_path, "--weights", weights_path, "--targets", "1,2", "--out", str(out)],
        "robustness": ["robustness", "--graph", graph_path, "--weights", weights_path, "--targets", "2",
                       "--steps", "2", "--out", str(out)],
        "synth": ["synth", "--kind", "planted-motif", "--out-graph", str(out / "g.json"),
                  "--out-weights", str(out / "w.json")],
    }[command]
    if source == "flag":
        monkeypatch.delenv("MOEXP_SEED", raising=False)
        argv += ["--seed", "-1"]
        message = "--seed must be a non-negative integer, got -1"
    else:
        monkeypatch.setenv("MOEXP_SEED", "-1")
        argv += ["--seed", "5"]
        message = "MOEXP_SEED must be a non-negative integer, got -1"
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_documents_are_read_and_written_as_utf8_in_any_locale(tmp_path, fixtures_dir):
    # Under the C locale, with UTF-8 mode and locale coercion off, open()
    # without an encoding reads and writes ASCII.
    doc = json.loads(pathlib.Path(fixtures_dir, "chain4.json").read_text(encoding="utf-8"))
    doc["name"] = "café graph"
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code = (
        "import sys; from moexp.io import load_graph, write_csv\n"
        "assert not sys.flags.utf8_mode\n"
        "print(load_graph(sys.argv[1]).node_count)\n"
        "write_csv(sys.argv[2], ['name'], [['caf\\u00e9']])\n"
    )
    package_root = str(pathlib.Path(moexp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(graph_path), str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4\n"
    assert (tmp_path / "out.csv").read_bytes() == "name\ncafé\n".encode("utf-8")


GOLDEN_INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"


def motif_explain(method, edge_weights, out):
    return ["explain", "--graph", str(GOLDEN_INPUTS / "motif.json"), "--weights",
            str(GOLDEN_INPUTS / "motif_weights.json"), "--method", method, "--edge-weights", str(edge_weights),
            "--targets", "0", "--out", str(out)]


@pytest.mark.parametrize("key", ["-1", "9", "99999"])
def test_edge_weight_keys_that_name_no_edge_fail_the_run(key, tmp_path, capsys):
    # motif.json has edges 0..8. A key outside them used to leave the grown
    # explanation the bare target.
    path = tmp_path / "e.json"
    path.write_text('{"8": 1.0, "%s": 0.5}' % key)
    out = tmp_path / "out"
    assert main(motif_explain("external-weights", path, out)) == 1
    assert capsys.readouterr().err == f"error: {path}: edge weights: key '{key}' names no edge of the graph\n"
    assert not out.exists()
    path.write_text('{"8": 1.0, "0": 0.5}')
    assert main(motif_explain("external-weights", path, out)) == 0


# Each input of a motif run with every input, the function of moexp.io that
# parses its document, and its golden file.
MOTIF_INPUTS = {
    "graph": ("parse_graph", "motif.json"),
    "weights": ("load_weights", "motif_weights.json"),
    "edge_weights": ("parse_edge_weights", "motif_edge_weights.json"),
}


def motif_run(paths, out):
    """``explain`` argv of an external-weights run on the motif inputs at ``paths``, by role."""
    return ["explain", "--graph", str(paths["graph"]), "--weights", str(paths["weights"]),
            "--edge-weights", str(paths["edge_weights"]), "--method", "external-weights",
            "--targets", "0", "--out", str(out)]


@pytest.mark.parametrize("role", MOTIF_INPUTS)
def test_the_manifest_records_the_bytes_the_run_parsed(role, tmp_path, monkeypatch):
    # The file is rewritten right after it is parsed, with the same document
    # and one more byte: a second read would hash the new bytes.
    paths = {}
    for name, (_, golden) in MOTIF_INPUTS.items():
        paths[name] = tmp_path / golden
        paths[name].write_bytes((GOLDEN_INPUTS / golden).read_bytes())
    parsed_bytes = paths[role].read_bytes()
    parser = getattr(moexp.io, MOTIF_INPUTS[role][0])

    def parse_then_rewrite(doc):
        result = parser(doc)
        paths[role].write_bytes(parsed_bytes + b"\n")
        return result

    monkeypatch.setattr(moexp.io, MOTIF_INPUTS[role][0], parse_then_rewrite)
    assert main(motif_run(paths, tmp_path / "out")) == 0
    recorded = json.loads((tmp_path / "out" / "node_0.json").read_text())["manifest"]["inputs"][role]
    assert recorded == {"path": str(paths[role]), "sha256": hashlib.sha256(parsed_bytes).hexdigest()}


def test_an_explain_run_opens_each_input_once(tmp_path, monkeypatch):
    paths = {name: GOLDEN_INPUTS / golden for name, (_, golden) in MOTIF_INPUTS.items()}
    opened = []

    def counted(real):
        def wrapper(file, *args, **kwargs):
            opened.append(file)
            return real(file, *args, **kwargs)
        return wrapper

    for module, name in ((builtins, "open"), (stdio, "open"), (os, "open")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    assert main(motif_run(paths, tmp_path / "out")) == 0
    monkeypatch.undo()
    names = [os.path.realpath(f) for f in opened if isinstance(f, (str, os.PathLike))]
    assert {role: names.count(os.path.realpath(path)) for role, path in paths.items()} == dict.fromkeys(paths, 1)


def declared_console_script(name):
    """The ``(module, function)`` that pyproject.toml's ``[project.scripts]`` declares for ``name``.

    A text match rather than ``tomllib``, which Python 3.10 lacks.
    """
    text = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\][ \t]*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert table, "pyproject.toml has no [project.scripts] table"
    entry = re.search(rf'^{re.escape(name)}\s*=\s*"([\w.]+):(\w+)"[ \t]*$', table.group(1), re.M)
    assert entry, f"[project.scripts] declares no {name!r} entry point"
    return entry.group(1), entry.group(2)


def test_console_script_smoke(tmp_path, fixtures_dir):
    """The declared ``moexp`` entry point runs ``explain`` out of process through ``sys.argv``.

    The child runs the entry point as pip's generated wrapper would, under this
    interpreter and with the package under test first on ``PYTHONPATH``, so the
    suite needs no install and never picks up another copy from ``PATH``.
    """
    module, func = declared_console_script("moexp")
    graph_path, weights_path = chain_paths(fixtures_dir)
    package_root = str(pathlib.Path(moexp.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())",
         "explain", "--graph", graph_path, "--weights", weights_path,
         "--out", str(tmp_path), "--targets", "2"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "node_2.json").exists()


def _moexp_child(launcher, args, cwd, prelude=""):
    """Run the CLI in a child process with stdout and stderr on pipes.

    ``launcher`` is ``"module"`` (``python -m moexp.cli``) or ``"script"``
    (the declared console-script function, as pip's wrapper calls it);
    ``prelude`` is Python run before the script's entry point.
    """
    package_root = str(pathlib.Path(moexp.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if launcher == "module":
        command = ["-m", "moexp.cli"]
    else:
        module, func = declared_console_script("moexp")
        command = ["-c", f"import sys; {prelude}from {module} import {func}; sys.exit({func}())"]
    return subprocess.run(
        [sys.executable, *command, *args], capture_output=True, text=True, cwd=cwd, env=env, timeout=120
    )


def _documents(out):
    """Every written node document, parsed, by node id; a truncated file fails to parse."""
    return {int(p.stem.split("_")[1]): json.loads(p.read_text()) for p in out.glob("node_*.json")}


@pytest.mark.parametrize("launcher", ["module", "script"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_child_exit_codes_and_documents(launcher, jobs, tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    argv = ["explain", "--graph", graph_path, "--weights", weights_path, "--jobs", jobs]

    proc = _moexp_child(launcher, argv + ["--out", str(tmp_path / "ok")], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    docs = _documents(tmp_path / "ok")
    assert sorted(docs) == [0, 1, 2, 3] and not any("error" in d for d in docs.values())

    proc = _moexp_child(launcher, argv + ["--out", str(tmp_path / "bad"), "--targets", "1,9,2"], tmp_path)
    assert (proc.returncode, proc.stderr) == (1, "node 9: ValueError: target node missing: 9\n1 of 3 nodes failed\n")
    docs = _documents(tmp_path / "bad")
    assert sorted(docs) == [1, 2, 9]
    assert docs[9]["error"] == "ValueError: target node missing: 9" and "error" not in docs[2]

    proc = _moexp_child(launcher, argv + ["--out", str(tmp_path / "flag"), "--no-such-flag"], tmp_path)
    assert proc.returncode == 2 and "unrecognized arguments: --no-such-flag" in proc.stderr
    assert not (tmp_path / "flag").exists()


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_cli_child_reports_a_stream_it_cannot_flush(stream, tmp_path, fixtures_dir):
    # The fast exit skips the interpreter's own flush at teardown, so it must
    # not lose that flush's failure: the status turns non-zero and the error
    # is written to the descriptor underneath the closed stream.
    graph_path, weights_path = chain_paths(fixtures_dir)
    argv = ["explain", "--graph", graph_path, "--weights", weights_path, "--out", str(tmp_path / "out")]
    proc = _moexp_child("script", argv, tmp_path, prelude=f"sys.{stream}.close(); ")
    assert proc.returncode == 120
    assert proc.stderr == f"error: cannot flush {stream}: I/O operation on closed file.\n"
    assert sorted(_documents(tmp_path / "out")) == [0, 1, 2, 3]


def test_cli_child_exits_without_interpreter_teardown(tmp_path, fixtures_dir, monkeypatch):
    # A sitecustomize module registers an exit handler that leaves a file
    # behind; the interpreter's teardown runs it, a fast exit does not.
    hook = tmp_path / "hook"
    hook.mkdir()
    marker = tmp_path / "torn-down"
    (hook / "sitecustomize.py").write_text(f"import atexit, pathlib\natexit.register(pathlib.Path({str(marker)!r}).touch)\n")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(hook), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=120)
    assert marker.exists()
    marker.unlink()
    graph_path, weights_path = chain_paths(fixtures_dir)
    for launcher in ("module", "script"):
        out = tmp_path / launcher
        proc = _moexp_child(launcher, ["explain", "--graph", graph_path, "--weights", weights_path, "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert sorted(_documents(out)) == [0, 1, 2, 3]
        assert not marker.exists()


def test_cli_child_is_silent_on_logits_whose_gap_overflows(tmp_path):
    # Target 0's logits are about +-1e308: their softmax subtracts one from
    # the other, which overflows to -inf and gives exactly 0.
    save_graph(build_graph([[1.0], [1.0], [1e308], [1e308]], [(0, 1), (1, 2), (2, 3)]), tmp_path / "g.json")
    save_model(Model(layers=(np.array([[1.0]]), np.array([[1.0, -1.0]]))), tmp_path / "w.json")
    argv = ["explain", "--graph", str(tmp_path / "g.json"), "--weights", str(tmp_path / "w.json")]
    proc = _moexp_child("module", argv + ["--out", str(tmp_path / "out"), "--targets", "0", "-D", "3"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert _documents(tmp_path / "out")[0]["full_distribution"] == [1.0, 0.0]


def test_cli_reports_missing_file_cleanly(tmp_path):
    code = main(
        ["explain", "--graph", str(tmp_path / "absent.json"), "--weights", str(tmp_path / "absent.json"),
         "--out", str(tmp_path)]
    )
    assert code != 0
