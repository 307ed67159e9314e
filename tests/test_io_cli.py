import csv
import hashlib
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

import moexp
from moexp import Model, build_graph
from moexp.cli import (
    EnumerateConfig,
    RobustnessConfig,
    RunConfig,
    ShapleyConfig,
    enumerate_command,
    explain_command,
    main,
    robustness_command,
    shapley_command,
    top_count,
)
from moexp.io import (
    FormatError,
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
    sha256_file,
    write_csv,
)


def chain_paths(fixtures_dir):
    return str(fixtures_dir / "chain4.json"), str(fixtures_dir / "chain4_weights.json")


def test_graph_round_trip(tmp_path, chain_graph):
    path = tmp_path / "g.json"
    save_graph(chain_graph, path)
    assert load_graph(path) == chain_graph
    assert load_graph(path).labels == (1, 0, 0, 0)


def test_graph_round_trip_without_labels(tmp_path):
    g = build_graph([[0.5, 1.5], [2.0, 0.0]], [(0, 1)])
    path = tmp_path / "g.json"
    save_graph(g, path)
    back = load_graph(path)
    assert back == g
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


def test_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"abc123")
    assert sha256_file(path) == hashlib.sha256(b"abc123").hexdigest()


def test_run_manifest_structure(fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    manifest = run_manifest(
        seed=7, config={"max_nodes": 4}, inputs={"graph": graph_path, "weights": weights_path}
    )
    assert manifest["tool"] == "moexp 0.1.0"
    assert manifest["prng"] == "numpy PCG64"
    assert manifest["seed"] == 7
    assert manifest["config"] == {"max_nodes": 4}
    assert manifest["inputs"]["graph"]["sha256"] == sha256_file(graph_path)
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
    code = explain_command(
        RunConfig(graph_path=graph_path, weights_path=weights_path, output_dir=str(tmp_path), targets="2")
    )
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
    explain_command(
        RunConfig(
            graph_path=graph_path, weights_path=weights_path, output_dir=str(tmp_path),
            targets="2", top_percent=50.0,
        )
    )
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
    explain_command(
        RunConfig(graph_path=graph_path, weights_path=weights_path, output_dir=str(tmp_path))
    )
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["node_0.json", "node_1.json", "node_2.json", "node_3.json"]


def test_explain_unlabeled_graph_targets_every_node(tmp_path, fixtures_dir):
    g = build_graph([[1.0], [0.0], [0.0]], [(0, 1), (1, 2)])
    graph_path = tmp_path / "g.json"
    save_graph(g, graph_path)
    out = tmp_path / "out"
    explain_command(
        RunConfig(
            graph_path=str(graph_path),
            weights_path=str(fixtures_dir / "chain4_weights.json"),
            output_dir=str(out),
        )
    )
    assert sorted(p.name for p in out.iterdir()) == ["node_0.json", "node_1.json", "node_2.json"]


def test_explain_bad_target_writes_error_doc(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    code = explain_command(
        RunConfig(graph_path=graph_path, weights_path=weights_path, output_dir=str(tmp_path), targets="99")
    )
    assert code == 1
    doc = json.loads((tmp_path / "node_99.json").read_text())
    assert doc["node"] == 99
    assert "error" in doc
    assert "manifest" in doc


def test_explain_keep_going_masks_failures(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    code = explain_command(
        RunConfig(
            graph_path=graph_path, weights_path=weights_path, output_dir=str(tmp_path),
            targets="2,99", keep_going=True,
        )
    )
    assert code == 0
    good = json.loads((tmp_path / "node_2.json").read_text())
    assert "error" not in good
    bad = json.loads((tmp_path / "node_99.json").read_text())
    assert "error" in bad


def test_explain_unparseable_target_rejected(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    with pytest.raises(ValueError, match="bad target id"):
        explain_command(
            RunConfig(graph_path=graph_path, weights_path=weights_path, output_dir=str(tmp_path), targets="abc")
        )


def test_jobs_do_not_change_outputs(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    serial, threaded = tmp_path / "serial", tmp_path / "threaded"
    for out, jobs in ((serial, 1), (threaded, 4)):
        explain_command(
            RunConfig(graph_path=graph_path, weights_path=weights_path, output_dir=str(out), jobs=jobs)
        )
    for name in sorted(p.name for p in serial.iterdir()):
        a = json.loads((serial / name).read_text())
        b = json.loads((threaded / name).read_text())
        a["manifest"].pop("generated_at")
        b["manifest"].pop("generated_at")
        assert a == b


def test_enumerate_triangle_has_six_rows(tmp_path, fixtures_dir):
    out = tmp_path / "enum.csv"
    code = enumerate_command(
        EnumerateConfig(
            graph_path=str(fixtures_dir / "triangle.json"), output_path=str(out),
            targets="0", max_nodes=3, diameter=2,
        )
    )
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
    code = shapley_command(
        ShapleyConfig(
            graph_path=str(graph_path), weights_path=str(fixtures_dir / "chain4_weights.json"),
            output_path=str(out), targets="0",
        )
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["target", "node", "shapley_value", "support_count"]
    assert len(rows) == 2
    assert rows[1][0] == "0" and rows[1][1] == "1" and rows[1][3] == "1"


def test_robustness_record_grid(tmp_path, fixtures_dir):
    graph_path = str(fixtures_dir / "triangle.json")
    weights_path = str(fixtures_dir / "triangle_weights.json")
    out = tmp_path / "sweep.csv"
    code = robustness_command(
        RobustnessConfig(
            graph_path=graph_path, weights_path=weights_path, output_path=str(out),
            targets="0,1", mode="message", steps=3, seed=11, magnitude=1.5,
        )
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["node", "kind", "strength", "pred_before", "pred_after", "jaccard", "seed"]
    assert len(rows) == 7
    assert [r[0] for r in rows[1:]] == ["0", "0", "0", "1", "1", "1"]


def test_robustness_weights_zero_step_is_inert(tmp_path, fixtures_dir):
    graph_path, weights_path = chain_paths(fixtures_dir)
    out = tmp_path / "sweep.csv"
    robustness_command(
        RobustnessConfig(
            graph_path=graph_path, weights_path=weights_path, output_path=str(out),
            targets="2", mode="weights", steps=3, seed=11, max_distance=2.0,
        )
    )
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
    assert m.input_dim == g.feature_dim


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
    assert (proc.returncode, proc.stderr) == (1, "1 of 3 nodes failed\n")
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
