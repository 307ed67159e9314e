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
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from . import io
from .analysis import confounder_set, derive_seed, run_sanity_sweep
from .baselines import shapley_values
from .explain import EnumConfig, enumerate_subgraphs
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

    def __post_init__(self):
        if not 0.0 < self.top_percent <= 100.0:
            raise ValueError("top_percent must be in (0, 100]")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")

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


def top_count(top_percent: float, pair_count: int) -> int:
    """How many of ``pair_count`` ranked pairs a document embeds: the first
    ceil(P * m / 100), at least one. The percent P is read as the decimal it
    prints as, so the count is exact: 7 % of 100 pairs is 7."""
    return max(1, math.ceil(Fraction(str(top_percent)) * pair_count / 100))


def _candidate_block(sub, distribution, simulatability, graph) -> dict:
    return {
        "edge_ids": list(sub.edge_set),
        "edges": [[int(u), int(w)] for u, w in (graph.edges[e] for e in sub.edge_set)],
        "nodes": list(sub.node_set),
        "distribution": [float(x) for x in distribution],
        "simulatability": float(simulatability),
    }


# One ``top_pairs`` entry as ``json.dumps(sort_keys=True, indent=2)`` writes it.
_PAIR = """    {
      "abs_cf_relevance": %s,
      "cf_rank": %d,
      "cf_relevance": %s,
      "counterfactual_edge_ids": %s,
      "explanation_edge_ids": %s,
      "explanation_nodes": %s,
      "on_front": %s,
      "rank_sum": %d,
      "removed_nodes": %s,
      "sim_rank": %d,
      "simulatability": %s
    }"""
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floats(values: np.ndarray) -> list:
    """Each float as ``json`` writes it: its repr, or NaN, Infinity, -Infinity."""
    text = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        text = [_NONFINITE.get(t, t) for t in text]
    return text


def _ints(values) -> str:
    """An int list as ``json`` writes it as the value of a ``top_pairs`` entry's key."""
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, values)) + "\n      ]"


def node_document(result: NodeExplanation, graph, model, config: RunConfig, manifest: dict) -> str:
    """The explain document of one node, as ``json.dumps(doc, sort_keys=True,
    indent=2) + "\n"`` writes it.

    The header fields go through ``json``. ``top_pairs``, the last key and
    nearly all of the text, is rendered straight from the ranked arrays:
    each candidate's lists once, then one template per embedded pair.
    """
    doc = {
        "schema": "moexp/1",
        "node": result.target,
        "method": result.method,
        "predicted_class": result.predicted_class,
        "full_distribution": [float(x) for x in result.full_distribution],
        "candidate_count": result.candidate_count,
        "pair_count": result.pair_count,
        "explanation": _candidate_block(
            result.explanation, result.explanation_distribution, result.explanation_simulatability, graph
        ),
        "manifest": manifest,
    }
    front, top_pairs = result.front, "[]"
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
        )
    else:
        scorer = result.scorer
        enumeration = scorer.enumeration
        subs = enumeration.subgraphs
        sel, e, c = front.selected, int(front.e[front.selected]), int(front.c[front.selected])
        relevance = float(front.relevance[sel])
        removed = enumeration.removed_nodes(e, c)
        doc.update(
            counterfactual=_candidate_block(
                subs[c], scorer.distributions[c], scorer.simulatability[c], graph
            ),
            removed_nodes=removed,
            cf_relevance=relevance,
            abs_cf_relevance=abs(relevance),
            rank_sum=front.rank_sums[sel],
            sim_rank=front.sim_ranks[sel],
            cf_rank=front.rel_ranks[sel],
            on_front=front.pareto[sel],
            front_size=front.front_size,
            confounders=sorted(confounder_set(graph, result.target, model.depth, removed, result.ball)),
        )
        order = front.order[: top_count(config.top_percent, len(front.e))]
        kept = np.array(order, dtype=np.intp)
        es, cs = front.e[kept].tolist(), front.c[kept].tolist()
        rel_text = _floats(front.relevance[kept])
        explanations = list(set(es))
        sims = dict(zip(explanations, _floats(scorer.simulatability[explanations])))
        edge_ids = {j: _ints(subs[j].edge_set) for j in {*es, *cs}}
        nodes = {j: _ints(subs[j].node_set) for j in explanations}
        pairs = [
            _PAIR % (
                # json writes abs(x) as x without its sign, NaN included.
                rel_text[k].lstrip("-"), front.rel_ranks[i], rel_text[k], edge_ids[cs[k]], edge_ids[es[k]],
                nodes[es[k]], "true" if front.pareto[i] else "false", front.rank_sums[i],
                _ints(enumeration.removed_nodes(es[k], cs[k])), front.sim_ranks[i], sims[es[k]],
            )
            for k, i in enumerate(order)
        ]
        top_pairs = "[\n" + ",\n".join(pairs) + "\n  ]"
    header = json.dumps(doc, sort_keys=True, indent=2, default=io._json_default)
    # "top_pairs" sorts after every header key, so it closes the object.
    return header[:-2] + ',\n  "top_pairs": ' + top_pairs + "\n}\n"


def explain_command(config: RunConfig) -> int:
    graph = io.load_graph(config.graph_path)
    model = io.load_model(config.weights_path)
    econfig = EnumConfig(config.max_nodes, config.diameter)
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
                # Only random draws from the seed; deriving it imports numpy.random.
                seed=derive_seed(config.seed, node) if config.method == "random" else config.seed,
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
        # Imported only here: it loads logging, which a one-thread run does not need.
        from concurrent.futures import ThreadPoolExecutor

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

    def __post_init__(self):
        # Checked once here, so a bad value is not reported once per node.
        if self.steps < 2:
            raise ValueError("steps must be at least 2")


def robustness_command(config: RobustnessConfig) -> int:
    graph = io.load_graph(config.graph_path)
    model = io.load_model(config.weights_path)
    econfig = EnumConfig(config.max_nodes, config.diameter)
    nodes = _resolve_targets(config.targets, graph)
    for node in nodes:
        if not 0 <= node < graph.node_count:
            raise ValueError(f"target node missing: {node}")
    records, failed = [], 0
    for node in nodes:
        try:
            records += run_sanity_sweep(
                model, graph, [node], config.mode, config.steps, config.seed, econfig,
                magnitude=config.magnitude, max_distance=config.max_distance,
                method=config.method, epsilon=config.epsilon,
            )
        except Exception as exc:  # reported per node; the other nodes' rows are kept
            print(f"node {node}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
    io.write_csv(
        config.output_path,
        ["node", "kind", "strength", "pred_before", "pred_after", "jaccard", "seed"],
        [(r.node, r.kind, r.strength, r.pred_before, r.pred_after, r.jaccard, r.seed) for r in records],
    )
    return 1 if failed else 0


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
    """The run's seed: MOEXP_SEED when set, else ``--seed``; either must be a
    non-negative integer, as numpy's SeedSequence requires."""
    env = os.environ.get("MOEXP_SEED")
    if env is None:
        source = "--seed"
    else:
        source = "MOEXP_SEED"
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"MOEXP_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
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


def run() -> None:
    """The ``moexp`` command: ``main()`` on ``sys.argv``, then an exit that
    skips interpreter teardown, whose module finalization (numpy's above
    all) costs an explain process 25 to 30 ms.

    Every file a command writes is closed before ``main`` returns, so only
    the standard streams are flushed here. A stream that cannot be flushed
    is reported on file descriptor 2 if it is still writable, and turns a
    zero exit status into 120, as the interpreter's own exit does.
    """
    code = main()
    for name in ("stdout", "stderr"):
        stream = getattr(sys, name)  # None if the descriptor was closed at start-up
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError) as exc:  # a broken pipe, a closed stream
            code = code or 120
            try:
                os.write(2, f"error: cannot flush {name}: {exc}\n".encode())
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
