"""Command line front end.

Subcommands: explain (per-node JSON documents), enumerate (candidate CSV),
shapley (attribution CSV), robustness (perturbation sweep CSV), and synth
(write a seeded synthetic graph/model pair). Every command is a function
of its parsed arguments. explain, robustness and synth take --seed, which
the environment variable MOEXP_SEED overrides. Outputs embed a run manifest
with the configuration, the seed, and content hashes of the inputs; writes
are atomic per file.

An ``explain`` run loads only what it uses: the other four commands are in
``moexp.commands``, and ``main`` builds the arguments of the one command
it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io
from .explain import EnumConfig
from .graph import confounder_set
from .pipeline import METHODS, NodeExplanation, explain_node


# The flags an explain run records in its manifest's ``config`` block.
_RECORDED = ("targets", "max_nodes", "diameter", "top_percent", "method", "exhaustive_cf", "epsilon")


def resolve_targets(spec: str, graph) -> list:
    if spec.strip() == "all-test":
        labeled = [i for i, label in enumerate(graph.labels or ()) if label is not None]
        return labeled or list(range(graph.node_count))
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
    # P is digits * 10**shift exactly, read from its repr.
    mantissa, _, exponent = repr(float(top_percent)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits, shift = int(whole + fraction), int(exponent or 0) - len(fraction)
    num, den = digits * pair_count, 100
    if shift >= 0:
        num *= 10**shift
    else:
        den *= 10**-shift
    return max(1, -(-num // den))


def _candidate_block(scorer, i: int) -> dict:
    """Candidate i of ``scorer``'s table with its scores, as a document block."""
    edges = scorer.enumeration.edge_ids[i]
    edges = edges[edges >= 0]
    return {
        "edge_ids": edges.tolist(),
        "edges": [list(pair) for pair in scorer.enumeration.ball.graph.endpoints(edges)],
        "nodes": scorer.enumeration.nodes(i),
        "distribution": scorer.distributions[i].tolist(),
        "simulatability": float(scorer.simulatability[i]),
    }


# The text around the values of one ``top_pairs`` entry, as
# ``json.dumps(sort_keys=True, indent=2)`` writes it: the entry is these
# pieces with its values, in key order, between them.
_PAIR_TEXT = (
    '    {\n      "abs_cf_relevance": ',
    ',\n      "cf_rank": ',
    ',\n      "cf_relevance": ',
    ',\n      "counterfactual_edge_ids": ',
    ',\n      "explanation_edge_ids": ',
    ',\n      "explanation_nodes": ',
    ',\n      "on_front": ',
    ',\n      "rank_sum": ',
    ',\n      "removed_nodes": ',
    ',\n      "sim_rank": ',
    ',\n      "simulatability": ',
    "\n    },\n",
)
_BOOLS = np.array(["false", "true"], dtype=object)
# The end of an int list: an empty one, or the line after its last item.
_CLOSE = np.array(["[]", "\n      ]"], dtype=object)
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floats(values: np.ndarray) -> list:
    """Each float as ``json`` writes it: its repr, or NaN, Infinity, -Infinity."""
    text = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        text = [_NONFINITE.get(t, t) for t in text]
    return text


def _distinct(values: np.ndarray):
    """The distinct values of a 1-D array, ascending, and each entry's
    position among them. (``np.unique`` would import ``numpy.ma``.)"""
    order = values.argsort()
    ordered = values[order]
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    return ordered[first], inverse


def _list_cells(ids: np.ndarray) -> np.ndarray:
    """Each row of ``ids`` (ascending, padded with -1 at the end) as the
    pieces of the list ``json`` writes as the value of a ``top_pairs``
    entry's key: per id the text before it and the id, "" per -1, and the
    end of the list. Each distinct id is rendered once."""
    distinct, inverse = _distinct(ids.ravel())
    texts = list(map(str, distinct.tolist()))
    table = np.array([["[\n        " + t, ",\n        " + t] for t in texts], dtype=object).reshape(-1, 2)
    if len(distinct) and distinct[0] < 0:
        table[0] = ""
    cells = table[inverse.reshape(ids.shape), np.arange(ids.shape[1]).clip(max=1)]
    full = ids[:, :1] >= 0 if ids.shape[1] else np.zeros((len(ids), 1), dtype=bool)
    return np.concatenate([cells, _CLOSE[full.view(np.int8)]], axis=1)


def _joined(cells: np.ndarray) -> np.ndarray:
    """Each row of ``cells`` joined into one text, as a one-column object array."""
    return np.array(list(map("".join, cells.tolist())), dtype=object)[:, None]


def _top_pairs(front, scorer, kept: np.ndarray) -> str:
    """The ``top_pairs`` value for the pairs ``kept`` of ``front``, in that order.

    Every distinct candidate list, id, rank and float is rendered once;
    the entries are then assembled from those texts by array indexing, and
    one join writes them all.
    """
    enumeration = scorer.enumeration
    k = len(kept)
    es, cs = front.e[kept], front.c[kept]
    candidates, at = _distinct(np.concatenate([es, cs]))
    edge_lists = _joined(_list_cells(enumeration.edge_ids[candidates]))
    explanations, e_at = _distinct(es)
    bits, rel_at = _distinct(front.relevance[kept].view(np.int64))  # -0.0 and 0.0 are written apart
    rel_text = _floats(bits.view(np.float64))
    ranks, rank_at = _distinct(np.concatenate([front.rel_ranks[kept], front.rank_sums[kept], front.sim_ranks[kept]]))
    rank_text = np.array(list(map(str, ranks.tolist())), dtype=object)[rank_at].reshape(3, k, 1)
    values = (
        # json writes abs(x) as x without its sign, NaN included.
        np.array([t.lstrip("-") for t in rel_text], dtype=object)[rel_at, None],
        rank_text[0],
        np.array(rel_text, dtype=object)[rel_at, None],
        edge_lists[at[k:]],
        edge_lists[at[:k]],
        _joined(_list_cells(enumeration.node_ids[explanations]))[e_at],
        _BOOLS[front.pareto[kept].view(np.int8), None],
        rank_text[1],
        # The target stays, so at most max_nodes - 1 nodes are removed.
        _list_cells(enumeration.removed_node_ids(es, cs)[:, :-1]),
        rank_text[2],
        np.array(_floats(scorer.simulatability[explanations]), dtype=object)[e_at, None],
    )
    widths = [value.shape[1] for value in values]
    starts = np.cumsum([0] + [1 + w for w in widths])
    pieces = np.empty((k, starts[-1] + 1), dtype=object)
    pieces[:, starts] = _PAIR_TEXT
    for start, value in zip(starts, values):
        pieces[:, start + 1 : start + 1 + value.shape[1]] = value
    pieces[0, 0] = "[\n" + _PAIR_TEXT[0]
    pieces[-1, -1] = "\n    }\n  ]"
    return "".join(pieces.ravel().tolist())


def node_document(result: NodeExplanation, top_percent: float, manifest: dict) -> str:
    """The explain document of one node, as ``json.dumps(doc, sort_keys=True,
    indent=2) + "\n"`` writes it.

    The header fields go through ``json``. ``top_pairs``, the last key and
    nearly all of the text, is assembled from the ranked arrays
    (``_top_pairs``).
    """
    doc = {
        "schema": "moexp/1",
        "node": result.target,
        "method": result.method,
        "predicted_class": result.predicted_class,
        "full_distribution": [float(x) for x in result.full_distribution],
        "candidate_count": result.candidate_count,
        "pair_count": result.pair_count,
        "explanation": _candidate_block(result.scorer, result.explanation),
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
        sel, e, c = front.selected, int(front.e[front.selected]), int(front.c[front.selected])
        relevance = float(front.relevance[sel])
        removed = enumeration.removed_nodes(e, c)
        doc.update(
            counterfactual=_candidate_block(scorer, c),
            removed_nodes=removed,
            cf_relevance=relevance,
            abs_cf_relevance=abs(relevance),
            rank_sum=int(front.rank_sums[sel]),
            sim_rank=int(front.sim_ranks[sel]),
            cf_rank=int(front.rel_ranks[sel]),
            on_front=bool(front.pareto[sel]),
            front_size=front.front_size,
            confounders=sorted(confounder_set(enumeration.ball, scorer.model.depth, removed)),
        )
        top_pairs = _top_pairs(front, scorer, front.order[: top_count(top_percent, len(front.e))])
    header = json.dumps(doc, sort_keys=True, indent=2, default=io.json_default)
    # "top_pairs" sorts after every header key, so it closes the object.
    return header[:-2] + ',\n  "top_pairs": ' + top_pairs + "\n}\n"


def explain_command(args) -> int:
    # Checked before any input is read, so a bad value fails the run once and writes nothing.
    if not 0.0 < args.top_percent <= 100.0:
        raise ValueError("top_percent must be in (0, 100]")
    if args.jobs < 1:
        raise ValueError("jobs must be at least 1")
    digests = {}  # path -> sha256 of the bytes read and parsed, which the manifest records
    graph = io.load_graph(args.graph_path, digests)
    model = io.load_model(args.weights_path, digests)
    econfig = EnumConfig(args.max_nodes, args.diameter)
    inputs = {"graph": args.graph_path, "weights": args.weights_path}
    external = None
    if args.edge_weights_path:
        # Read whatever the method, since the manifest records the file.
        external = io.load_edge_weights(args.edge_weights_path, digests)
        stray = next((eid for eid in external if not 0 <= eid < graph.edge_count), None)
        if stray is not None:
            raise io.FormatError(f"{args.edge_weights_path}: edge weights: key '{stray}' names no edge of the graph")
        inputs["edge_weights"] = args.edge_weights_path
    elif args.method == "external-weights":
        raise ValueError("method external-weights requires --edge-weights")
    manifest = io.run_manifest({name: getattr(args, name) for name in _RECORDED}, args.seed, inputs, digests)
    os.makedirs(args.output_dir, exist_ok=True)

    def path(node: int) -> str:
        return os.path.join(args.output_dir, f"node_{node}.json")

    def work(node: int) -> None:
        seed = args.seed
        if args.method == "random":
            # Only random draws from the seed; deriving it imports numpy.random.
            from .analysis import derive_seed

            seed = derive_seed(args.seed, node)
        result = explain_node(
            model, graph, node, econfig, method=args.method, seed=seed,
            exhaustive_cf=args.exhaustive_cf, epsilon=args.epsilon, edge_weights=external,
        )
        io.dump_json(node_document(result, args.top_percent, manifest), path(node))

    def failed(node: int, error: str) -> str | None:
        try:
            io.dump_json({"schema": "moexp/1", "node": node, "error": error, "manifest": manifest}, path(node))
        except Exception as exc:
            return f"node {node}: error document not written to {path(node)}: {type(exc).__name__}: {exc}"

    _, failures = run_nodes(args.targets, graph, work, args.jobs, failed)
    return 0 if (failures == 0 or args.keep_going) else 1


def run_nodes(spec: str, graph, work, jobs: int = 1, failed=None) -> tuple[list, int]:
    """Run ``work(node)`` for every target ``spec`` names, on ``jobs`` threads,
    and return the results in target order (None where a node failed) and the
    failure count. A node fails alone, since a prediction reads only its ball:
    when it is not a node of ``graph`` or ``work`` raises, ``failed(node,
    "<Type>: <message>")`` runs in its place and may return one more stderr line.
    After the loop stderr gets ``node <id>: <Type>: <message>`` per failed node,
    in target order, and ``<F> of <M> nodes failed``."""
    targets = resolve_targets(spec, graph)

    def one(node: int) -> tuple:
        """``work``'s result and None, or None and the node's stderr report."""
        try:
            if not 0 <= node < graph.node_count:
                raise ValueError(f"target node missing: {node}")
            return work(node), None
        except Exception as exc:  # reported per node; the other nodes run
            error = f"{type(exc).__name__}: {exc}"
            return None, "\n".join(filter(None, [f"node {node}: {error}", failed(node, error) if failed else None]))

    if jobs > 1:
        # Imported only here: it loads logging, which a one-thread run does not need.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(one, targets))
    else:
        outcomes = list(map(one, targets))
    reports = [report for _, report in outcomes if report]
    if reports:
        print(*reports, f"{len(reports)} of {len(targets)} nodes failed", sep="\n", file=sys.stderr)
    return [result for result, _ in outcomes], len(reports)


# Every command and its line in ``moexp -h``, in the order listed there.
_COMMANDS = {
    "explain": "write one explanation document per node",
    "enumerate": "list candidate subgraphs as CSV",
    "shapley": "per-node attribution as CSV",
    "robustness": "perturbation sweep as CSV",
    "synth": "write a synthetic graph and matching weights",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``moexp`` parser. Every command is registered, but only
    ``command`` gets its arguments (each one costs argparse a formatter and
    gettext lookups), or every command when ``command`` names none."""
    # The package's one-line summary; python -OO strips docstrings.
    summary = (sys.modules[__package__].__doc__ or "").partition("\n")[0]
    parser = argparse.ArgumentParser(prog="moexp", description=summary)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if command == name or command not in _COMMANDS:
            _add_arguments(name, p)
    return parser


def _add_arguments(command: str, p: argparse.ArgumentParser) -> None:
    """Add ``command``'s arguments and its ``run`` default to ``p``. Every
    command but ``explain`` imports ``moexp.commands``."""
    if command == "synth":
        from .commands import synth_command
        from .synth import KINDS

        p.add_argument("--kind", choices=KINDS, required=True)
        p.add_argument("--param", action="append", help="kind parameter as key=value", default=[])
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out-graph", required=True)
        p.add_argument("--out-weights", required=True)
        p.set_defaults(run=synth_command)
        return
    p.add_argument("--graph", dest="graph_path", metavar="GRAPH", required=True, help="graph JSON file")
    if command != "enumerate":
        p.add_argument(
            "--weights", dest="weights_path", metavar="WEIGHTS", required=True, help="model weights JSON file"
        )
    p.add_argument("--targets", default="all-test", help="comma-separated node ids or 'all-test'")
    p.add_argument("--max-nodes", "-C", type=int, default=4, help="max nodes per candidate")
    p.add_argument("--diameter", "-D", type=int, default=2, help="max hops from the target")
    if command in ("explain", "robustness"):
        p.add_argument("--seed", type=int, default=42)
    if command == "explain":
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
        p.set_defaults(run=explain_command)
        return
    from . import commands

    p.add_argument("--out", dest="output_path", metavar="OUT", required=True, help="output CSV file")
    if command == "enumerate":
        p.set_defaults(run=commands.enumerate_command)
    elif command == "shapley":
        p.add_argument("--epsilon", type=float, default=1e-9)
        p.set_defaults(run=commands.shapley_command)
    else:
        p.add_argument("--mode", choices=["message", "weights"], default="message")
        p.add_argument("--steps", type=int, default=5)
        p.add_argument("--magnitude", type=float, default=1.0, help="message norm (message mode)")
        p.add_argument("--max-distance", type=float, default=1.0, help="last-layer shift (weights mode)")
        p.add_argument("--method", choices=METHODS, default="pareto-rank")
        p.add_argument("--epsilon", type=float, default=1e-9)
        p.set_defaults(run=commands.robustness_command)


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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The command is the first argument that is not an option.
    args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    try:
        if "seed" in vars(args):  # the commands that declare --seed
            args.seed = _seed_from_env(args.seed)
        # Checked once for the run, before any input is read; CandidateScorer checks it again for library callers.
        if "epsilon" in vars(args) and not 0.0 < args.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1): {args.epsilon}")
        return args.run(args)
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
