"""Command line front end.

Subcommands: explain (per-node JSON documents), enumerate (candidate CSV),
shapley (attribution CSV), robustness (perturbation sweep CSV), and synth
(write a seeded synthetic graph/model pair). The environment variable
MOEXP_SEED overrides --seed for explain, robustness and synth; enumerate
and shapley accept --seed but do not use it. Outputs embed a run manifest
with the configuration, the seed, and content hashes of the inputs; writes
are atomic per file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

from . import io
from .analysis import confounder_set, derive_seed, run_sanity_sweep
from .baselines import shapley_values
from .explain import EnumConfig, enumerate_subgraphs
from .pareto import pair_tie_keys
from .pipeline import METHODS, NodeExplanation, explain_node
from .synth import KINDS, synth_graph


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration of one explain run."""

    graph_path: str
    weights_path: str
    output_dir: str
    targets: str = "all-test"
    max_nodes: int = 4
    diameter: int = 2
    top_percent: float = 100.0
    method: str = "pareto-rank"
    exhaustive_cf: bool = False
    epsilon: float = 1e-9
    seed: int = 42
    jobs: int = 1
    keep_going: bool = False
    edge_weights_path: str | None = None

    def public_dict(self) -> dict:
        return {
            "targets": self.targets,
            "max_nodes": self.max_nodes,
            "diameter": self.diameter,
            "top_percent": self.top_percent,
            "method": self.method,
            "exhaustive_cf": self.exhaustive_cf,
            "epsilon": self.epsilon,
        }


def _resolve_targets(spec: str, graph) -> list:
    if spec.strip() == "all-test":
        if graph.labels is not None:
            labeled = [i for i, l in enumerate(graph.labels) if l is not None]
            if labeled:
                return labeled
        return list(range(graph.node_count))
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(int(token))
        except ValueError:
            raise ValueError(f"bad target id: {token!r}") from None
    if not out:
        raise ValueError("no target nodes requested")
    return out


def _candidate_block(candidate, graph) -> dict:
    sub = candidate.subgraph
    return {
        "edge_ids": list(sub.edge_set),
        "edges": [[int(u), int(w)] for u, w in (graph.edges[e] for e in sub.edge_set)],
        "nodes": list(sub.node_set),
        "distribution": [float(x) for x in candidate.distribution],
        "simulatability": float(candidate.simulatability),
    }


def node_document(result: NodeExplanation, graph, model, config: RunConfig, manifest: dict) -> dict:
    doc = {
        "schema": "moexp/1",
        "node": result.target,
        "method": result.method,
        "predicted_class": result.predicted_class,
        "full_distribution": [float(x) for x in result.full_distribution],
        "candidate_count": result.candidate_count,
        "pair_count": result.pair_count,
        "explanation": _candidate_block(result.explanation_candidate, graph),
        "manifest": manifest,
    }
    front = result.front
    if front is None:
        doc.update(
            counterfactual=None,
            removed_nodes=[],
            cf_relevance=None,
            abs_cf_relevance=None,
            rank_sum=None,
            sim_rank=None,
            cf_rank=None,
            on_front=None,
            front_size=0,
            confounders=None,
            top_pairs=[],
        )
        return doc
    pair = front.selected_pair
    sel = front.selected
    doc.update(
        counterfactual=_candidate_block(pair.counterfactual, graph),
        removed_nodes=list(pair.removed_nodes),
        cf_relevance=float(pair.relevance),
        abs_cf_relevance=float(pair.abs_relevance),
        rank_sum=int(front.rank_sums[sel]),
        sim_rank=int(front.sim_ranks[sel]),
        cf_rank=int(front.rel_ranks[sel]),
        on_front=bool(front.pareto[sel]),
        front_size=front.front_size,
        confounders=sorted(confounder_set(graph, result.target, model.depth, pair)),
    )
    keys = pair_tie_keys(front.pairs)
    order = sorted(range(len(front.pairs)), key=lambda i: (front.rank_sums[i], keys[i]))
    keep = max(1, math.ceil(config.top_percent / 100.0 * len(front.pairs)))
    top = []
    for i in order[:keep]:
        p = front.pairs[i]
        top.append(
            {
                "explanation_edge_ids": list(p.explanation.subgraph.edge_set),
                "explanation_nodes": list(p.explanation.subgraph.node_set),
                "counterfactual_edge_ids": list(p.counterfactual.subgraph.edge_set),
                "removed_nodes": list(p.removed_nodes),
                "simulatability": float(p.explanation.simulatability),
                "cf_relevance": float(p.relevance),
                "abs_cf_relevance": float(p.abs_relevance),
                "sim_rank": int(front.sim_ranks[i]),
                "cf_rank": int(front.rel_ranks[i]),
                "rank_sum": int(front.rank_sums[i]),
                "on_front": bool(front.pareto[i]),
            }
        )
    doc["top_pairs"] = top
    return doc


def explain_command(config: RunConfig) -> int:
    graph = io.load_graph(config.graph_path)
    model = io.load_model(config.weights_path)
    econfig = EnumConfig(config.max_nodes, config.diameter, config.top_percent)
    external = None
    if config.method == "external-weights":
        if not config.edge_weights_path:
            raise ValueError("method external-weights requires --edge-weights")
        external = io.load_edge_weights(config.edge_weights_path)
    inputs = {"graph": config.graph_path, "weights": config.weights_path}
    if config.edge_weights_path:
        inputs["edge_weights"] = config.edge_weights_path
    manifest = io.run_manifest(config.public_dict(), config.seed, inputs)
    targets = _resolve_targets(config.targets, graph)
    os.makedirs(config.output_dir, exist_ok=True)

    def work(node: int):
        try:
            if not 0 <= node < graph.node_count:
                raise ValueError(f"target node missing: {node}")
            result = explain_node(
                model,
                graph,
                node,
                econfig,
                method=config.method,
                seed=derive_seed(config.seed, node),
                exhaustive_cf=config.exhaustive_cf,
                epsilon=config.epsilon,
                edge_weights=external,
            )
            doc = node_document(result, graph, model, config, manifest)
            ok = True
        except Exception as exc:  # recorded per node; the run continues
            doc = {
                "schema": "moexp/1",
                "node": int(node),
                "error": f"{type(exc).__name__}: {exc}",
                "manifest": manifest,
            }
            ok = False
        io.dump_json(doc, os.path.join(config.output_dir, f"node_{node}.json"))
        return ok

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(work, targets))
    else:
        results = [work(node) for node in targets]
    failed = results.count(False)
    if failed:
        print(f"{failed} of {len(results)} nodes failed", file=sys.stderr)
    return 0 if (failed == 0 or config.keep_going) else 1


@dataclass(frozen=True)
class EnumerateConfig:
    graph_path: str
    output_path: str
    targets: str
    max_nodes: int = 4
    diameter: int = 2


def enumerate_command(config: EnumerateConfig) -> int:
    graph = io.load_graph(config.graph_path)
    econfig = EnumConfig(config.max_nodes, config.diameter)
    rows = []
    for node in _resolve_targets(config.targets, graph):
        if not 0 <= node < graph.node_count:
            raise ValueError(f"target node missing: {node}")
        enumeration = enumerate_subgraphs(graph, node, econfig)
        for i, sub in enumerate(enumeration.subgraphs):
            parent = enumeration.parents[i]
            rows.append(
                (
                    node,
                    i,
                    "" if parent is None else parent,
                    len(sub.node_set),
                    "|".join(str(e) for e in sub.edge_set),
                    "|".join(str(v) for v in sub.node_set),
                )
            )
    io.write_csv(
        config.output_path,
        ["node", "index", "parent", "node_count", "edge_ids", "node_ids"],
        rows,
    )
    return 0


@dataclass(frozen=True)
class ShapleyConfig:
    graph_path: str
    weights_path: str
    output_path: str
    targets: str
    max_nodes: int = 4
    diameter: int = 2
    epsilon: float = 1e-9


def shapley_command(config: ShapleyConfig) -> int:
    graph = io.load_graph(config.graph_path)
    model = io.load_model(config.weights_path)
    econfig = EnumConfig(config.max_nodes, config.diameter)
    rows = []
    for node in _resolve_targets(config.targets, graph):
        if not 0 <= node < graph.node_count:
            raise ValueError(f"target node missing: {node}")
        report = shapley_values(model, graph, node, econfig, config.epsilon)
        for other in sorted(report):
            entry = report[other]
            rows.append((node, other, entry.value, entry.support_count))
    io.write_csv(
        config.output_path,
        ["target", "node", "shapley_value", "support_count"],
        rows,
    )
    return 0


@dataclass(frozen=True)
class RobustnessConfig:
    graph_path: str
    weights_path: str
    output_path: str
    targets: str
    mode: str = "message"
    steps: int = 5
    seed: int = 42
    magnitude: float = 1.0
    max_distance: float = 1.0
    method: str = "pareto-rank"
    max_nodes: int = 4
    diameter: int = 2
    epsilon: float = 1e-9


def robustness_command(config: RobustnessConfig) -> int:
    graph = io.load_graph(config.graph_path)
    model = io.load_model(config.weights_path)
    econfig = EnumConfig(config.max_nodes, config.diameter)
    nodes = _resolve_targets(config.targets, graph)
    for node in nodes:
        if not 0 <= node < graph.node_count:
            raise ValueError(f"target node missing: {node}")
    records = run_sanity_sweep(
        model,
        graph,
        nodes,
        config.mode,
        config.steps,
        config.seed,
        econfig,
        magnitude=config.magnitude,
        max_distance=config.max_distance,
        method=config.method,
        epsilon=config.epsilon,
    )
    io.write_csv(
        config.output_path,
        ["node", "kind", "strength", "pred_before", "pred_after", "jaccard", "seed"],
        [(r.node, r.kind, r.strength, r.pred_before, r.pred_after, r.jaccard, r.seed) for r in records],
    )
    return 0


def synth_command(args) -> int:
    graph, model = synth_graph(args.kind, _parse_params(args.param), _seed_from_env(args.seed))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moexp", description=__doc__.split("\n")[1])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weights=True):
        p.add_argument("--graph", dest="graph_path", metavar="GRAPH", required=True, help="graph JSON file")
        if weights:
            p.add_argument(
                "--weights", dest="weights_path", metavar="WEIGHTS", required=True, help="model weights JSON file"
            )
        p.add_argument("--targets", default="all-test", help="comma-separated node ids or 'all-test'")
        p.add_argument("--max-nodes", "-C", type=int, default=4, help="max nodes per candidate")
        p.add_argument("--diameter", "-D", type=int, default=2, help="max hops from the target")
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("explain", help="write one explanation document per node")
    common(p)
    p.add_argument("--out", dest="output_dir", metavar="OUT", required=True, help="output directory")
    p.add_argument("--method", choices=METHODS, default="pareto-rank")
    p.add_argument("--top-percent", type=float, default=100.0)
    p.add_argument("--exhaustive-cf", action="store_true")
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--keep-going", action="store_true")
    p.add_argument(
        "--edge-weights",
        dest="edge_weights_path",
        metavar="EDGE_WEIGHTS",
        help="edge weight JSON for method external-weights",
    )
    p.set_defaults(run=explain_command, config=RunConfig)

    p = sub.add_parser("enumerate", help="list candidate subgraphs as CSV")
    common(p, weights=False)
    p.add_argument("--out", dest="output_path", metavar="OUT", required=True, help="output CSV file")
    p.set_defaults(run=enumerate_command, config=EnumerateConfig)

    p = sub.add_parser("shapley", help="per-node attribution as CSV")
    common(p)
    p.add_argument("--out", dest="output_path", metavar="OUT", required=True, help="output CSV file")
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.set_defaults(run=shapley_command, config=ShapleyConfig)

    p = sub.add_parser("robustness", help="perturbation sweep as CSV")
    common(p)
    p.add_argument("--out", dest="output_path", metavar="OUT", required=True, help="output CSV file")
    p.add_argument("--mode", choices=["message", "weights"], default="message")
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--magnitude", type=float, default=1.0, help="message norm (message mode)")
    p.add_argument("--max-distance", type=float, default=1.0, help="last-layer shift (weights mode)")
    p.add_argument("--method", choices=METHODS, default="pareto-rank")
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.set_defaults(run=robustness_command, config=RobustnessConfig)

    p = sub.add_parser("synth", help="write a synthetic graph and matching weights")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--param", action="append", help="kind parameter as key=value", default=[])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-weights", required=True)
    p.set_defaults(run=synth_command, config=None)

    return parser


def _seed_from_env(seed: int) -> int:
    env = os.environ.get("MOEXP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"MOEXP_SEED must be an integer, got {env!r}") from None
    return seed


def _config(config_class, args):
    """Build a command config from the parsed flags; a seed field honours MOEXP_SEED."""
    values = {f.name: getattr(args, f.name) for f in fields(config_class)}
    if "seed" in values:
        values["seed"] = _seed_from_env(values["seed"])
    return config_class(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args if args.config is None else _config(args.config, args))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
