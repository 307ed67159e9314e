"""Contracts of the public surface: one propagation loop, finite inputs, NaN-safe ranking,
checked option ranges, per-node errors, traced boundaries that exist, a lazy package
namespace, and no import or public name that nothing reads."""

import argparse
import ast
import csv
import importlib.util
import inspect
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import moexp
from moexp import CandidateScorer, Model, build_graph, canonical_order, explain_node
from moexp.cli import _add_arguments, build_parser, explain_command, main
from moexp.gcn import node_embeddings
from moexp.io import (
    FormatError, graph_to_doc, load_edge_weights, load_graph, load_model, model_to_doc, parse_graph, save_graph,
    save_model,
)
from moexp.pareto import _front, _ranks
from moexp.synth import synth_graph

from conftest import enumerate_at, forward_at, hidden_at
from oracles import feature_dim, masked_loss


ROOT = pathlib.Path(__file__).resolve().parent.parent
_ENV = dict(os.environ, PYTHONPATH=str(pathlib.Path(moexp.__file__).resolve().parent.parent))


def test_every_exported_name_resolves():
    missing = [name for name in moexp.__all__ if not hasattr(moexp, name)]
    assert missing == []


def test_lazy_namespace_lists_binds_and_rejects():
    assert set(moexp.__all__) <= set(dir(moexp))
    namespace = {}
    exec("from moexp import *", namespace)
    assert all(namespace[name] is getattr(moexp, name) for name in moexp.__all__)
    with pytest.raises(AttributeError, match="^module 'moexp' has no attribute 'no_such_name'$"):
        moexp.no_such_name
    with pytest.raises(ImportError):
        exec("from moexp import no_such_name", {})


def test_bare_import_loads_no_module_until_a_name_is_read():
    code = """
import sys
import moexp
assert [m for m in sys.modules if m.startswith("moexp.")] == [], sys.modules
assert moexp.analysis is sys.modules["moexp.analysis"]
assert moexp.confounder_set is sys.modules["moexp.graph"].confounder_set
import moexp.synth
assert moexp.synth.KINDS is moexp.KINDS
"""
    proc = subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _unused_imports(path: pathlib.Path) -> list:
    """``file:line: name`` for each name an import binds that the file never
    reads. A line marked ``noqa: F401`` (an import for its side effect) is
    exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and name not in read:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return unused


def test_no_import_is_unused():
    # __init__.py files are exempt: they re-export what they import.
    files = [p for d in ("src/moexp", "tests", "scripts", "benchmark") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) > 20
    assert [u for p in files if p.name != "__init__.py" for u in _unused_imports(p)] == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_crossings(path: pathlib.Path) -> list:
    """``module <- other._name`` for each ``_``-prefixed name of another
    ``moexp`` module that the module at ``path`` imports, or reads as an
    attribute of that module. Dunder names are not private."""
    tree = ast.parse(path.read_text(), str(path))
    here, modules, crossings = path.stem, {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "moexp"):
            source = (node.module or "").removeprefix("moexp").lstrip(".")
            for alias in node.names:
                if not source:  # ``from . import io`` binds a module
                    modules[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name) and source != here:
                    crossings.append(f"{here} <- {source}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("moexp."):
                    modules[alias.asname or alias.name] = alias.name.removeprefix("moexp.")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            source = modules.get(ast.unparse(node.value))
            if source is not None and source != here:
                crossings.append(f"{here} <- {source}.{node.attr}")
    return crossings


def test_no_private_name_crosses_a_module():
    # A name one module of the package reads from another is public.
    files = sorted((ROOT / "src/moexp").glob("*.py"))
    assert len(files) > 10
    assert [c for p in files for c in _private_crossings(p)] == []


def _unread_public_names() -> list:
    """``file:line: name`` for each public top-level function or class, and
    each public method, of ``src/moexp`` that no code in ``src/``,
    ``scripts/`` or ``benchmark/`` reads outside the name's own body. A
    function or class is read by a name or an attribute spelled the same;
    a method or property only by an attribute, so a local variable or a
    parameter of the same spelling does not hide it. A part of a dotted
    path in ``benchmark/tracing.py``'s ``SPANS`` reads either. Reads inside
    the body of an unread name do not count. Reads are matched by
    spelling, so a member that shares its name with another attribute read
    somewhere (``list.index``) still counts as read."""
    defined, reads = [], []
    for d in ("src/moexp", "scripts", "benchmark"):
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            where = str(path.relative_to(ROOT))
            for top in tree.body if d == "src/moexp" else ():
                if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                    defined.append((where, top, top.name))
                    for member in top.body if isinstance(top, ast.ClassDef) else ():
                        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                            defined.append((where, member, f"{top.name}.{member.name}"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    reads.append((where, node.lineno, node.id, False))
                elif isinstance(node, ast.Attribute):
                    reads.append((where, node.lineno, node.attr, True))
                elif where == "benchmark/tracing.py" and isinstance(node, ast.Assign):
                    if [ast.unparse(t) for t in node.targets] == ["SPANS"]:
                        spans = ast.literal_eval(node.value)
                        reads += [
                            (where, node.lineno, part, True) for _, dotted, _ in spans for part in dotted.split(".")
                        ]

    def inside(read, definition) -> bool:
        return read[0] == definition[0] and definition[1].lineno <= read[1] <= definition[1].end_lineno

    def reads_it(read, definition) -> bool:
        # A member's name is dotted; only an attribute or a SPANS part reads it.
        return read[2] == definition[1].name and (read[3] or "." not in definition[2])

    unread = []
    while True:
        live = [r for r in reads if not any(inside(r, u) for u in unread)]
        more = [
            d for d in defined
            if d not in unread and not any(reads_it(r, d) and not inside(r, d) for r in live)
        ]
        if not more:
            return sorted(f"{where}:{node.lineno}: {name}" for where, node, name in unread)
        unread += more


def test_every_public_name_is_read_by_the_program():
    # Names that only tests read belong in tests/oracles.py. save_edge_weights
    # stays: the golden-input regeneration in tests/test_golden.py writes the
    # edge-weight files with it, and the CLI's --edge-weights reads them.
    unread = _unread_public_names()
    assert [u for u in unread if not u.endswith(": save_edge_weights")] == []


def _unpassed_optional_parameters() -> list:
    """``function(parameter)`` for each parameter with a default of a public
    top-level function or class of ``src/moexp`` (a class's parameters are
    its ``__init__``'s) that no call in ``src/``, ``scripts/`` or
    ``benchmark/`` passes, by keyword or by position. Calls are matched by
    the spelling of the called name or attribute. A ``*args`` call passes
    every positional parameter and a ``**kwargs`` call every parameter; the
    keywords of a ``replace`` call count for every class, since the scan
    does not know the class of its first argument."""
    calls = {}
    for d in ("src/moexp", "scripts", "benchmark"):
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    starred = any(isinstance(a, ast.Starred) for a in node.args)
                    calls.setdefault(name, []).append(
                        (sys.maxsize if starred else len(node.args), {k.arg for k in node.keywords})
                    )
    replaced = {k for _, keywords in calls.get("replace", []) for k in keywords}
    unpassed = []
    for name, obj, params in _public_signatures():
        positional = [p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        passed = set(replaced) if inspect.isclass(obj) else set()
        for count, keywords in calls.get(name, []):
            passed.update(positional[:count], keywords)
            if None in keywords:  # **kwargs
                passed.update(p.name for p in params)
        unpassed += [f"{name}({p.name})" for p in params if p.default is not p.empty and p.name not in passed]
    return sorted(unpassed)


def _public_signatures() -> list:
    """(name, object, parameters) of each public top-level function or
    class of ``src/moexp``; a class's parameters are its ``__init__``'s."""
    found = []
    for path in sorted((ROOT / "src/moexp").glob("[!_]*.py")):
        module = importlib.import_module(f"moexp.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            # A class without an __init__ of its own (an exception) is skipped.
            if inspect.isfunction(obj) or inspect.isclass(obj) and "__init__" in vars(obj):
                found.append((name, obj, list(inspect.signature(obj).parameters.values())))
    return found


def test_every_optional_parameter_is_passed_by_the_program():
    # A default that only tests override is a knob the program never turns.
    assert _unpassed_optional_parameters() == []


def test_a_ball_parameter_is_required_and_alone():
    # A ball holds its graph and its target: passing them beside it only
    # asks the callee to check that they agree, and a default ball asks it
    # to build one. Entry points take (graph, target); stages take the ball.
    found = []
    for name, _, params in _public_signatures():
        names = {p.name: p for p in params}
        if "ball" in names:
            found += [f"{name}(ball=)"] if names["ball"].default is not names["ball"].empty else []
            found += [f"{name}(ball, {other})" for other in ("graph", "target", "v") if other in names]
    assert found == []


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
            assert states[i].tobytes() == hidden_at(model, graph, u).tobytes()


def test_unmasked_loss_equals_empty_mask_loss_bitwise():
    graph, model = synth_graph("erdos", {"nodes": 30, "p": 0.15}, 9)
    for v in range(graph.node_count):
        probs = forward_at(model, graph, v)
        y = int(np.argmax(probs))
        assert float(-np.log(probs[y])) == masked_loss(model, graph, v, y, {})


def test_competition_ranks_rejects_nan():
    with pytest.raises(ValueError, match="non-finite score at index 1: nan"):
        _ranks(np.array([1.0, float("nan")]))


@pytest.mark.parametrize("scores", [[(float("nan"), 1.0)], [(1.0, 2.0), (0.5, float("nan"))]])
def test_pareto_front_rejects_nan(scores):
    # The front reads the ranks, so ``_ranks`` is the one NaN check.
    with pytest.raises(ValueError, match="non-finite score"):
        _front(*map(_ranks, np.array(scores).T))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_parse_graph_rejects_non_finite_features(bad):
    graph, _ = synth_graph("chain", {"nodes": 3}, 0)
    doc = graph_to_doc(graph)
    doc["nodes"][2]["features"][0] = bad
    with pytest.raises(FormatError, match=r"nodes\[2\]: features must be finite"):
        parse_graph(doc)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("label", 1.7, "nodes[2]: label must be an integer or null"),
        ("label", "2", "nodes[2]: label must be an integer or null"),
        ("label", True, "nodes[2]: label must be an integer or null"),
        ("label", "x", "nodes[2]: label must be an integer or null"),
        ("features", [True], "nodes[2]: features must be a list of numbers"),
        ("features", ["1.5"], "nodes[2]: features must be a list of numbers"),
        ("features", [10**400], "nodes[2]: features must be finite"),
        ("directed", "no", "directed: expected true or false, got 'no'"),
        ("directed", 0, "directed: expected true or false, got 0"),
    ],
    ids=["label-float", "label-string", "label-bool", "label-word", "features-bool", "features-string",
         "features-int-401-digits", "directed-string", "directed-int"],
)
def test_parse_graph_reads_labels_features_and_directed_strictly(field, value, message):
    # Each value used to load: labels through int(), features through
    # float(), and "directed" by truth, so "no" read as directed and 0 did
    # not. A feature too large for a float raised a bare OverflowError. The
    # bad node is node 1, third in the list.
    nodes = [{"id": i, "features": [0.5], "label": 0} for i in (0, 2, 1)]
    doc = {"directed": False, "nodes": nodes, "edges": [[0, 1]]}
    assert parse_graph(doc).labels == (0, 0, 0)
    (doc if field == "directed" else nodes[2])[field] = value
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_graph(doc)


@pytest.mark.parametrize("key", [" 7 ", "+8", "09", "\u0663", "1_0"])
def test_edge_weight_keys_must_be_decimal_edge_ids(key, tmp_path):
    # int() reads each of these keys; only str(edge id) is one.
    path = tmp_path / "e.json"
    path.write_text('{"3": 0.5, "%s": 1}' % key)
    key = json.loads(f'"{key}"')
    with pytest.raises(FormatError, match=f"^{re.escape(f'edge weights: bad entry {key!r}: 1')}$"):
        load_edge_weights(path)
    path.write_text('{"3": 0.5, "12": 1}')
    assert load_edge_weights(path) == {3: 0.5, 12: 1.0}


@pytest.mark.parametrize("text", ["NaN", "Infinity"])
def test_load_model_rejects_non_finite_weights(tmp_path, text):
    _, model = synth_graph("chain", {"nodes": 3}, 0)
    doc = model_to_doc(model)
    doc["layers"][1]["data"][0] = "BAD"
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc).replace('"BAD"', text))
    with pytest.raises(FormatError, match=r"layers\[1\]: weights must be finite"):
        load_model(path)


@pytest.mark.parametrize(
    "text",
    ["NaN", "Infinity", "-Infinity", "true", '"0.5"', "1" + "0" * 399],
    ids=["nan", "inf", "-inf", "bool", "string", "int-400-digits"],
)
def test_edge_weights_that_are_not_finite_numbers_fail_the_run(text, tmp_path, capsys):
    # float() reads every one of these but the int, which it cannot hold. A
    # NaN on edge 0 would never compare lower than another key, so node 0's
    # grown explanation would take edges 0, 1 and 2.
    inputs = ROOT / "tests" / "golden" / "inputs"
    doc = json.loads((inputs / "motif_edge_weights.json").read_text())
    doc["0"] = "BAD"
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc).replace('"BAD"', text))
    message = f"edge weights: bad entry '0': {json.loads(text)!r}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_edge_weights(path)
    argv = ["explain", "--graph", str(inputs / "motif.json"), "--weights", str(inputs / "motif_weights.json")]
    argv += ["--method", "external-weights", "--edge-weights", str(path), "--targets", "0"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("self_loop", "false", "self_loop must be true or false, got 'false'"),
        ("mean_aggregate", "no", "mean_aggregate must be true or false, got 'no'"),
        ("final_activation", 1, "final_activation must be true or false, got 1"),
        ("rows", 2.9, "layers[0]: rows must be a positive integer, got 2.9"),
        ("rows", True, "layers[0]: rows must be a positive integer, got True"),
        ("cols", 0, "layers[0]: cols must be a positive integer, got 0"),
        ("cols", "1", "layers[0]: cols must be a positive integer, got '1'"),
    ],
    ids=["self_loop-string", "mean_aggregate-string", "final_activation-int", "rows-float", "rows-bool",
         "cols-zero", "cols-string"],
)
def test_load_model_reads_flags_and_shapes_strictly(key, value, message, tmp_path):
    _, model = synth_graph("chain", {"nodes": 3}, 0)
    doc = model_to_doc(model)
    (doc["layers"][0] if key in ("rows", "cols") else doc)[key] = value
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_model(path)


FLAGS = ("self_loop", "mean_aggregate", "final_activation")


@pytest.mark.parametrize("flags", [dict(zip(FLAGS, bits)) for bits in itertools.product([False, True], repeat=3)])
def test_a_saved_model_loads_with_its_flags(flags, tmp_path):
    save_model(Model(layers=(np.eye(2), np.eye(2)), **flags), tmp_path / "w.json")
    back = load_model(tmp_path / "w.json")
    assert {key: getattr(back, key) for key in FLAGS} == flags


@pytest.mark.parametrize("key", FLAGS)
@pytest.mark.parametrize("value", [1, 0, "yes", None, np.True_])
def test_model_rejects_a_flag_that_is_not_a_bool(key, value):
    # The weights reader's wording: a Model that cannot be saved and loaded
    # back is not built.
    message = f"{key} must be true or false, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Model(layers=(np.eye(2), np.eye(2)), **{key: value})


@pytest.mark.parametrize(
    "target,value,message",
    [
        ("layers", 5, "layers must be a list, got 5"),
        ("data", 5, "layers[0]: data must be a list of numbers"),
        ("data[0]", "a", "layers[0]: data must be a list of numbers"),
        ("data[0]", True, "layers[0]: data must be a list of numbers"),
        ("data[0]", 10**400, "layers[0]: weights must be finite"),
    ],
    ids=["layers-int", "data-int", "data-string", "data-bool", "data-int-400-digits"],
)
def test_load_model_reads_layers_and_data_strictly(target, value, message, tmp_path):
    _, model = synth_graph("chain", {"nodes": 3}, 0)
    doc = model_to_doc(model)
    if target == "layers":
        doc["layers"] = value
    elif target == "data":
        doc["layers"][0]["data"] = value
    else:
        doc["layers"][0]["data"][0] = value
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_model(path)


@pytest.mark.parametrize(
    "target,key,value,message",
    [
        ("doc", "mean_agregate", True, "weights document: unknown key 'mean_agregate'"),
        ("doc", "bias", [0.0, 0.0], "weights document: unknown key 'bias'"),
        ("layer", "bias", [0.0, 0.0], "layers[1]: unknown key 'bias'"),
        ("doc", "activation", ["relu"], "unknown activation: ['relu']"),
        ("doc", "activation", 1, "unknown activation: 1"),
    ],
    ids=["misspelt-flag", "doc-key", "layer-key", "activation-list", "activation-int"],
)
def test_load_model_reads_only_the_keys_it_knows(target, key, value, message, tmp_path):
    # Each unknown key used to be ignored, so a misspelt mean_aggregate left
    # the model summing; the activation was read through str().
    _, model = synth_graph("chain", {"nodes": 3}, 0)
    doc = model_to_doc(model)
    (doc["layers"][1] if target == "layer" else doc)[key] = value
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_model(path)


@pytest.mark.parametrize("edge", ["[0, 1.9]", '["0", "1"]', "[true, 2]", '[0, "1e0"]'])
def test_edge_endpoints_that_are_not_integers_fail_the_run(edge, tmp_path, capsys):
    # int() would read the first three as the edges (0, 1), (0, 1) and (1, 2).
    text = '{"nodes": [{"id": 0, "features": [1.0]}, {"id": 1, "features": [0.0]}, {"id": 2, "features": [0.5]}], '
    (tmp_path / "g.json").write_text(text + f'"edges": [[0, 2], {edge}]}}')
    with pytest.raises(FormatError, match=r"^edges\[1\]: endpoints must be integers$"):
        load_graph(tmp_path / "g.json")
    argv = ["enumerate", "--graph", str(tmp_path / "g.json"), "--targets", "0", "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: edges[1]: endpoints must be integers\n"
    assert not (tmp_path / "c.csv").exists()


def test_overflowing_features_give_an_error_document(tmp_path):
    # 1e308 is finite, but the aggregation overflows; the forward pass
    # raises instead of handing NaN distributions on to ranking.
    graph, model = synth_graph("planted-motif", {}, 7)
    doc = graph_to_doc(graph)
    doc["nodes"][1]["features"] = [1e308] * feature_dim(graph)
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
    assert np.isfinite(forward_at(model, graph, 0)).all()
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


def test_overflowing_features_fail_shapley_without_nan_rows(tmp_path, capsys):
    # The same input as above: the node fails, and no NaN attribution rows may be written.
    graph, model = synth_graph("planted-motif", {}, 7)
    doc = graph_to_doc(graph)
    doc["nodes"][1]["features"] = [1e308] * feature_dim(graph)
    (tmp_path / "g.json").write_text(json.dumps(doc))
    save_model(model, tmp_path / "w.json")
    argv = ["shapley", "--graph", str(tmp_path / "g.json"), "--weights", str(tmp_path / "w.json")]
    assert main(argv + ["--targets", "0", "--out", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err == (
        "node 0: ValueError: forward pass at node 0: overflow encountered in add\n1 of 1 nodes failed\n"
    )
    assert (tmp_path / "s.csv").read_text() == "target,node,shapley_value,support_count\n"


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


@pytest.mark.parametrize("command", ["explain", "enumerate", "shapley", "robustness", "synth"])
def test_every_declared_flag_is_read_by_its_command(command):
    # A static scan of the run function's ``args.<name>`` reads, nested
    # functions included: explain reads keep_going only when a node fails.
    parser = argparse.ArgumentParser()
    _add_arguments(command, parser)
    declared = {action.dest for action in parser._actions} - {"help"}
    function = ast.parse(textwrap.dedent(inspect.getsource(parser.get_default("run")))).body[0]
    args = function.args.args[0].arg
    read = {
        node.attr
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == args
    }
    assert read == declared


def test_every_command_runs_its_nodes_in_run_nodes():
    # A static scan of the package: the targets are resolved, and the thread
    # pool imported, in cli.run_nodes only, so no command loops over its
    # targets with a failure rule of its own.
    found = set()
    for path in sorted(pathlib.Path(moexp.__file__).resolve().parent.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{getattr(statement, 'name', '<module>')}"
            for node in ast.walk(statement):
                if isinstance(node, ast.Call):
                    name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
                    if name == "resolve_targets":
                        found.add((name, owner))
                elif isinstance(node, ast.Import):
                    found |= {(alias.name, owner) for alias in node.names if alias.name.startswith("concurrent")}
                elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("concurrent"):
                    found.add((node.module, owner))
    assert found == {("resolve_targets", "cli.run_nodes"), ("concurrent.futures", "cli.run_nodes")}


def test_every_traced_span_resolves():
    # A renamed boundary would silently zero its per-layer benchmark metrics.
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer() as tracer:
        assert tracer.absent == []


def _tracing():
    """``benchmark/tracing.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing", ROOT / "benchmark" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


_CALLED_SPANS = {
    "cli.run", "cli.document", "io.load", "io.manifest", "io.dump", "pipeline.node", "graph.order",
    "explain.enumerate", "explain.pairs", "explain.score", "gcn.reference", "pareto.rank",
}


@pytest.mark.parametrize(
    "flags, called",
    [
        ([], _CALLED_SPANS),
        (["--exhaustive-cf"], _CALLED_SPANS),
        (["--method", "grad-fd"], _CALLED_SPANS - {"explain.pairs"} | {"baselines.grad_fd"}),
    ],
)
def test_every_traced_span_is_called_in_its_role(flags, called, tmp_path):
    # A traced name that the program stops calling, or calls in another
    # role, reads 0 or a wrong figure and fails nothing: each explained
    # node orders its ball once and runs one reference pass.
    inputs = ROOT / "tests" / "golden" / "inputs"
    argv = ["explain", "--graph", str(inputs / "motif.json"), "--weights", str(inputs / "motif_weights.json")]
    with _tracing().Tracer() as tracer:
        assert main(argv + ["--targets", "0,2", "--out", str(tmp_path), *flags]) == 0
    assert {span for span, count in tracer.calls.items() if count} == called
    assert tracer.calls["pipeline.node"] == tracer.calls["graph.order"] == tracer.calls["gcn.reference"] == 2


def test_traced_boundaries_see_every_document(fixtures_dir, tmp_path):
    # A writer that bypassed io.dump_json would read 0 KiB per node, silently.
    tracing = _tracing()
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
        CandidateScorer(chain_model, enumerate_at(chain_graph, 2), epsilon)
    with pytest.raises(ValueError, match=message):
        explain_node(chain_model, chain_graph, 2, epsilon=epsilon)


@pytest.mark.parametrize("command", ["explain", "shapley", "robustness"])
def test_epsilon_outside_unit_interval_fails_the_command(command, tmp_path, capsys):
    # One error for the run, before the (missing) inputs are read.
    out = tmp_path / "out"
    argv = [command, "--graph", str(tmp_path / "g.json"), "--weights", str(tmp_path / "w.json")]
    assert main(argv + ["--targets", "2", "--epsilon", "-0.5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: epsilon must be in (0, 1): -0.5\n"
    assert not out.exists()


def test_jobs_below_one_is_rejected(fixtures_dir, tmp_path, capsys):
    # Checked before the command reads its (here missing) inputs.
    args = ["explain", "--graph", "g.json", "--weights", "w.json", "--out", "out", "--jobs", "0"]
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        explain_command(build_parser("explain").parse_args(args))
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
    err = capsys.readouterr().err
    assert err == "node 1: ValueError: degenerate class direction: zero-norm class column\n1 of 2 nodes failed\n"
    assert main(argv + ["--targets", "0", "--out", str(tmp_path / "alone.csv")]) == 0
    rows = list(csv.reader((tmp_path / "both.csv").read_text().splitlines()))
    assert [r[0] for r in rows[1:]] == ["0", "0"]
    assert (tmp_path / "both.csv").read_text() == (tmp_path / "alone.csv").read_text()
    # A bad option is still one error for the whole run, not one per node.
    argv[-1] = "1"
    assert main(argv + ["--targets", "0,1", "--out", str(tmp_path / "none.csv")]) == 1
    assert capsys.readouterr().err == "error: steps must be at least 2\n"
    assert not (tmp_path / "none.csv").exists()


# Run in a fresh interpreter: the modules loaded by ``import moexp.cli``, and
# those each explain run, in the order given, loads after it.
_IMPORT_PROBE = """
import json, sys
from moexp import cli
at_import, loaded = sorted(sys.modules), {}
for method in sys.argv[1:]:
    before = set(sys.modules)
    argv = ["explain", "--graph", "g.json", "--weights", "w.json", "--targets", "0,1,2,5"]
    if cli.main(argv + ["--method", method, "--jobs", "1", "--out", "out-" + method]) != 0:
        sys.exit("explain --method %s failed" % method)
    loaded[method] = sorted(set(sys.modules) - before)
print(json.dumps([at_import, loaded]))
"""


def _within(names, packages) -> list:
    return [m for m in names if m in packages or m.startswith(tuple(p + "." for p in packages))]


def test_explain_imports_only_what_its_run_uses(tmp_path):
    graph, model = synth_graph("planted-motif", {}, 7)
    save_graph(graph, tmp_path / "g.json")
    save_model(model, tmp_path / "w.json")
    methods = ["pareto-rank", "balanced", "grad-fd", "shapley", "grad-analytic"]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *methods], cwd=tmp_path, env=_ENV, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    at_import, by_method = json.loads(proc.stdout.splitlines()[-1])
    loaded = [m for names in by_method.values() for m in names]
    # The package namespace is lazy, and the other commands live in
    # moexp.commands: the import loads the explain path and nothing else.
    assert _within(at_import, ("moexp",)) == [
        "moexp", "moexp.cli", "moexp.explain", "moexp.gcn", "moexp.graph", "moexp.io", "moexp.pareto", "moexp.pipeline"
    ]
    assert _within(at_import, ("fractions", "csv")) == []
    # Only the baseline methods read moexp.baselines.
    assert _within(by_method["pareto-rank"] + by_method["balanced"], ("moexp",)) == []
    assert _within(by_method["grad-fd"], ("moexp",)) == ["moexp.baselines"]
    assert _within(loaded, ("moexp.analysis", "moexp.synth", "moexp.commands")) == []
    # numpy.ma (np.unique loads it on numpy 2) and numpy.random (only method
    # random draws) are checked against what the import loaded, so numpy
    # 1.x, which loads both with numpy itself, passes too.
    assert _within(loaded, ("numpy.ma", "numpy.random")) == []
    # The thread pool, which loads logging, is for --jobs above 1 only.
    assert _within(at_import + loaded, ("concurrent.futures",)) == []
