#!/usr/bin/env python3
"""End-to-end demo: synthesize a graph, explain one node with every method.

Usage: python scripts/run_demo.py [--kind planted-motif] [--seed 7] [--target 0]
"""

import argparse

from moexp import EnumConfig, canonical_order, explain_node, forward, random_weights, synth_graph
from moexp.pipeline import METHODS


def main() -> None:
    # python -OO strips docstrings.
    ap = argparse.ArgumentParser(description=(__doc__ or "").partition("\n")[0])
    ap.add_argument("--kind", default="planted-motif")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--target", type=int, default=0)
    ap.add_argument("--max-nodes", type=int, default=4)
    ap.add_argument("--diameter", type=int, default=2)
    args = ap.parse_args()

    graph, model = synth_graph(args.kind, seed=args.seed)
    config = EnumConfig(max_nodes=args.max_nodes, diameter=args.diameter)
    dist = forward(model, canonical_order(graph, args.target, model.depth))
    print(f"graph: {args.kind} seed={args.seed} ({graph.node_count} nodes, {graph.edge_count} edges)")
    print(f"target {args.target}: full prediction {dist.round(4).tolist()}")
    print()
    print(f"{'method':<17}{'explanation nodes':<22}{'removed':<12}{'sim':>10}{'cf_rel':>10}")
    for method in METHODS:
        kwargs = {}
        if method == "external-weights":
            ball = canonical_order(graph, args.target, config.diameter)
            kwargs["edge_weights"] = random_weights(ball, config.diameter, seed=args.seed)
        result = explain_node(model, graph, args.target, config, method=method, **kwargs)
        nodes = ",".join(str(v) for v in result.scorer.enumeration.nodes(result.explanation))
        sim = f"{result.scorer.simulatability[result.explanation]:.4f}"
        front = result.front
        if front is not None:
            sel = front.selected
            removed_nodes = result.scorer.enumeration.removed_nodes(front.e[sel], front.c[sel])
            removed = ",".join(str(v) for v in removed_nodes) or "-"
            rel = f"{front.relevance[sel]:.4f}"
        else:
            removed, rel = "-", "-"
        print(f"{method:<17}{nodes:<22}{removed:<12}{sim:>10}{rel:>10}")


if __name__ == "__main__":
    main()
