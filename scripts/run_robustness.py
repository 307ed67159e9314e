#!/usr/bin/env python3
"""Perturbation sweeps on a synthetic graph, written as two CSV files.

Message mode injects a synthetic last-layer message at a controlled angle
to the predicted-class weight column; weights mode shifts the last layer
by a controlled Euclidean distance. Each sweep records the prediction and
the Jaccard drift of the selected explanation.

Usage: python scripts/run_robustness.py [--out-dir robustness-out]
"""

import argparse
import os

from moexp import EnumConfig, run_sanity_sweep, synth_graph
from moexp.io import write_csv

HEADER = ["node", "kind", "strength", "pred_before", "pred_after", "jaccard", "seed"]


def main() -> None:
    # python -OO strips docstrings.
    ap = argparse.ArgumentParser(description=(__doc__ or "").partition("\n")[0])
    ap.add_argument("--kind", default="planted-motif")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--nodes", default="0,1,2")
    ap.add_argument("--steps", type=int, default=9)
    ap.add_argument("--magnitude", type=float, default=4.0)
    ap.add_argument("--max-distance", type=float, default=3.0)
    ap.add_argument("--out-dir", default="robustness-out")
    args = ap.parse_args()

    graph, model = synth_graph(args.kind, seed=args.seed)
    nodes = [int(tok) for tok in args.nodes.split(",")]
    config = EnumConfig(max_nodes=4, diameter=2)
    os.makedirs(args.out_dir, exist_ok=True)

    for mode, extra in (("message", {"magnitude": args.magnitude}), ("weights", {"max_distance": args.max_distance})):
        records = run_sanity_sweep(model, graph, nodes, mode, args.steps, args.seed, config, **extra)
        path = os.path.join(args.out_dir, f"sweep_{mode}.csv")
        write_csv(path, HEADER, [(r.node, r.kind, r.strength, r.pred_before, r.pred_after, r.jaccard, r.seed) for r in records])
        flips = sum(1 for r in records if r.pred_after != r.pred_before)
        print(f"{mode}: {len(records)} records -> {path} ({flips} prediction flips)")


if __name__ == "__main__":
    main()
