"""The enumerate, shapley, robustness and synth commands.

``cli.main`` imports this module only to run one of them (or to list every
command's arguments), so an ``explain`` process never loads it, nor the
``baselines``, ``analysis`` and ``synth`` modules these commands read.
"""

from __future__ import annotations

import sys

from . import io
from .analysis import run_sanity_sweep
from .baselines import shapley_values
from .cli import resolve_targets
from .explain import EnumConfig, enumerate_subgraphs
from .graph import canonical_order
from .synth import synth_graph


def _targets(spec: str, graph) -> list:
    """The target ids ``spec`` names; a ``ValueError`` for the first one
    that is not a node of ``graph``, so a command fails before any work."""
    nodes = resolve_targets(spec, graph)
    for node in nodes:
        if not 0 <= node < graph.node_count:
            raise ValueError(f"target node missing: {node}")
    return nodes


def enumerate_command(args) -> int:
    graph = io.load_graph(args.graph_path)
    econfig = EnumConfig(args.max_nodes, args.diameter)
    rows = []
    for node in _targets(args.targets, graph):
        enumeration = enumerate_subgraphs(canonical_order(graph, node, econfig.diameter), econfig)
        table = zip(
            enumeration.parent.tolist(), enumeration.sizes.tolist(),
            enumeration.edge_ids.tolist(), enumeration.node_ids.tolist(),
        )
        for i, (parent, k, edges, nodes) in enumerate(table):
            edge_text, node_text = "|".join(map(str, edges[: k - 1])), "|".join(map(str, nodes[:k]))
            rows.append((node, i, "" if parent < 0 else parent, k, edge_text, node_text))
    io.write_csv(
        args.output_path,
        ["node", "index", "parent", "node_count", "edge_ids", "node_ids"],
        rows,
    )
    return 0


def shapley_command(args) -> int:
    graph = io.load_graph(args.graph_path)
    model = io.load_model(args.weights_path)
    econfig = EnumConfig(args.max_nodes, args.diameter)
    rows = []
    for node in _targets(args.targets, graph):
        report = shapley_values(model, graph, node, econfig, args.epsilon)
        for other in sorted(report):
            entry = report[other]
            rows.append((node, other, entry.value, entry.support_count))
    io.write_csv(
        args.output_path,
        ["target", "node", "shapley_value", "support_count"],
        rows,
    )
    return 0


def robustness_command(args) -> int:
    # Checked before any input is read, so a bad value is not reported once per node.
    if args.steps < 2:
        raise ValueError("steps must be at least 2")
    for flag, value in (("--magnitude", args.magnitude), ("--max-distance", args.max_distance)):
        if not 0.0 <= value < float("inf"):  # false for nan too
            raise ValueError(f"{flag} must be finite and non-negative, got {value}")
    if args.method == "external-weights":
        raise ValueError("method external-weights needs edge weights, which robustness does not read")
    graph = io.load_graph(args.graph_path)
    model = io.load_model(args.weights_path)
    econfig = EnumConfig(args.max_nodes, args.diameter)
    records, failed = [], 0
    for node in _targets(args.targets, graph):
        try:
            records += run_sanity_sweep(
                model, graph, [node], args.mode, args.steps, args.seed, econfig,
                magnitude=args.magnitude, max_distance=args.max_distance,
                method=args.method, epsilon=args.epsilon,
            )
        except Exception as exc:  # reported per node; the other nodes' rows are kept
            print(f"node {node}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
    io.write_csv(
        args.output_path,
        ["node", "kind", "strength", "pred_before", "pred_after", "jaccard", "seed"],
        [(r.node, r.kind, r.strength, r.pred_before, r.pred_after, r.jaccard, r.seed) for r in records],
    )
    return 1 if failed else 0


def synth_command(args) -> int:
    graph, model = synth_graph(args.kind, _parse_params(args.param), args.seed)
    io.save_graph(graph, args.out_graph)
    io.save_model(model, args.out_weights)
    return 0


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"bad --param (expected key=value): {item!r}")
        key, value = item.split("=", 1)
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out
