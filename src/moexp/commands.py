"""The enumerate, shapley, robustness and synth commands.

``cli.main`` imports this module only to run one of them (or to list every
command's arguments), so an ``explain`` process never loads it, nor the
``baselines``, ``analysis`` and ``synth`` modules these commands read.
"""

from __future__ import annotations

from . import io
from .analysis import run_sanity_sweep
from .baselines import shapley_values
from .cli import run_nodes
from .explain import EnumConfig, enumerate_subgraphs
from .graph import canonical_order
from .synth import synth_graph


def _write_rows(path, header, results: list, failures: int) -> int:
    """Write the rows of the nodes that succeeded in ``run_nodes``; status 1 if any node failed."""
    io.write_csv(path, header, [row for rows in results if rows for row in rows])
    return 1 if failures else 0


def enumerate_command(args) -> int:
    graph = io.load_graph(args.graph_path)
    econfig = EnumConfig(args.max_nodes, args.diameter)

    def work(node: int) -> list:
        enumeration = enumerate_subgraphs(canonical_order(graph, node, econfig.diameter), econfig)
        table = zip(
            enumeration.parent.tolist(), enumeration.sizes.tolist(),
            enumeration.edge_ids.tolist(), enumeration.node_ids.tolist(),
        )
        return [
            (node, i, "" if parent < 0 else parent, k, "|".join(map(str, edges[: k - 1])), "|".join(map(str, nodes[:k])))
            for i, (parent, k, edges, nodes) in enumerate(table)
        ]

    header = ["node", "index", "parent", "node_count", "edge_ids", "node_ids"]
    return _write_rows(args.output_path, header, *run_nodes(args.targets, graph, work))


def shapley_command(args) -> int:
    graph = io.load_graph(args.graph_path)
    model = io.load_model(args.weights_path)
    econfig = EnumConfig(args.max_nodes, args.diameter)

    def work(node: int) -> list:
        report = shapley_values(model, graph, node, econfig, args.epsilon)
        return [(node, other, report[other].value, report[other].support_count) for other in sorted(report)]

    header = ["target", "node", "shapley_value", "support_count"]
    return _write_rows(args.output_path, header, *run_nodes(args.targets, graph, work))


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

    def work(node: int) -> list:
        records = run_sanity_sweep(
            model, graph, [node], args.mode, args.steps, args.seed, econfig,
            magnitude=args.magnitude, max_distance=args.max_distance,
            method=args.method, epsilon=args.epsilon,
        )
        return [(r.node, r.kind, r.strength, r.pred_before, r.pred_after, r.jaccard, r.seed) for r in records]

    header = ["node", "kind", "strength", "pred_before", "pred_after", "jaccard", "seed"]
    return _write_rows(args.output_path, header, *run_nodes(args.targets, graph, work))


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
