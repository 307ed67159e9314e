"""Per-layer spans of an in-process explain run, recorded from outside.

``Tracer`` replaces the public functions at each ``src/moexp`` module
boundary with timing wrappers for the duration of a ``with`` block and puts
the originals back on exit. A function imported by name into another module
is replaced there too, so calls through either name are seen. A function
that no longer exists is listed in ``Tracer.absent`` and its metrics read 0,
so a refactor that moves it breaks no end-to-end number.

Each span keeps its inclusive time and its self time (inclusive minus the
spans it caused). ``layer_metrics`` turns the totals into the per-layer
metrics of ``BENCHMARK.json``; ``stage_shares`` splits the run's time into
an exclusive per-stage table.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span name); ``None`` names the span per call.
SPANS = (
    ("moexp.cli", "explain_command", "cli.run"),
    ("moexp.cli", "node_document", "cli.document"),
    ("moexp.io", "load_graph", "io.load"),
    ("moexp.io", "load_model", "io.load"),
    ("moexp.io", "run_manifest", "io.manifest"),
    ("moexp.io", "dump_json", "io.dump"),
    ("moexp.pipeline", "explain_node", "pipeline.node"),
    ("moexp.graph", "canonical_order", "graph.order"),
    ("moexp.explain", "enumerate_subgraphs", "explain.enumerate"),
    ("moexp.explain", "generate_pairs", "explain.pairs"),
    ("moexp.explain", "CandidateScorer.pair", "explain.score"),
    ("moexp.explain", "CandidateScorer.candidate", "explain.score"),
    ("moexp.gcn", "forward", None),
    ("moexp.baselines", "grad_weights_fd", "baselines.grad_fd"),
    ("moexp.pareto", "rank_pairs", "pareto.rank"),
)

# name, unit, better, the end-to-end metric and workloads it should move.
PER_LAYER = (
    ("io.dump_ms_per_node", "ms", "lower", "nodes_per_s on erdos-c4-docs and star-hub-exh; no change on erdos-c5-score"),
    ("io.out_kib_per_node", "KiB", "lower", "nodes_per_s on erdos-c4-docs and star-hub-exh; no change on erdos-c5-score"),
    ("cli.document_ms_per_node", "ms", "lower", "nodes_per_s on star-hub-exh and erdos-c4-docs"),
    ("pipeline.node_ms_p50", "ms", "lower", "nodes_per_s on every workload"),
    ("pipeline.node_ms_max", "ms", "lower", "the tail a per-node budget targets, on star-hub-exh"),
    ("graph.order_ms_per_node", "ms", "lower", "nodes_per_s on erdos-c4-docs and erdos-c5-score"),
    ("explain.enumerate_ms_per_node", "ms", "lower", "nodes_per_s and peak_rss_mb on star-hub-exh"),
    ("explain.candidates_per_node", "count", "lower", "nodes_per_s and peak_rss_mb on star-hub-exh"),
    ("explain.pairs_ms_per_node", "ms", "lower", "nodes_per_s on star-hub-exh"),
    ("explain.pairs_per_node", "count", "lower", "nodes_per_s on star-hub-exh"),
    ("explain.score_ms_per_node", "ms", "lower", "nodes_per_s on erdos-c5-score"),
    ("explain.memo_hit_ratio", "ratio", "higher", "nodes_per_s on erdos-c5-score"),
    ("gcn.reference_ms_per_node", "ms", "lower", "nodes_per_s on erdos-c4-docs; no change on star-hub-exh"),
    ("gcn.restricted_forwards_per_node", "count", "lower", "nodes_per_s on erdos-c5-score and star-hub-exh"),
    ("gcn.restricted_forward_us", "us", "lower", "nodes_per_s on erdos-c5-score and star-hub-exh"),
    ("gcn.full_pass_ms", "ms", "lower", "nodes_per_s on erdos-gradfd only"),
    ("baselines.grad_fd_ms_per_node", "ms", "lower", "nodes_per_s on erdos-gradfd only"),
    ("baselines.masked_passes_per_node", "count", "lower", "nodes_per_s on erdos-gradfd only"),
    ("pareto.rank_ms_per_node", "ms", "lower", "nodes_per_s on erdos-c5-score and star-hub-exh"),
    ("pareto.front_size_mean", "count", "lower", "nodes_per_s on erdos-c5-score and star-hub-exh"),
    ("trace.unattributed_frac", "ratio", "lower", "share of run time no layer span covers"),
    ("trace.overhead_frac", "ratio", "lower", "traced over plain pass time (medians), minus 1"),
)

# Exclusive stages of the load -> reference -> enumerate -> pairs -> score
# -> rank -> serialize chain, as sums of span self times. ``unattributed``
# is the self time of ``cli.run``.
STAGES = (
    ("parse", ("io.load", "io.manifest")),
    ("reference", ("gcn.reference",)),
    ("order", ("graph.order",)),
    ("enumerate", ("explain.enumerate",)),
    ("pairs", ("explain.pairs",)),
    ("score", ("explain.score", "gcn.restricted")),
    ("baselines", ("baselines.grad_fd", "gcn.baseline_pass")),
    ("rank", ("pareto.rank",)),
    ("pipeline", ("pipeline.node",)),
    ("document", ("cli.document",)),
    ("serialize", ("io.dump",)),
    ("unattributed", ("cli.run",)),
)


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.node_ms = []
        self.absent = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        importlib.import_module("moexp.cli")
        self.absent = []
        for module_name, path, span in SPANS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, span, *self._hooks(span))
            if outer:
                self._patch(owner, attr, wrapper)
            else:
                for name, module in list(sys.modules.items()):
                    if name == "moexp" or name.startswith("moexp."):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _hooks(self, span):
        """(name chooser, after-call hook) for the spans that need one."""
        counts = self.counts
        if span is None:
            def choose(args, kwargs):
                restrict = kwargs.get("restrict", args[3] if len(args) > 3 else None)
                mask = kwargs.get("mask", args[4] if len(args) > 4 else None)
                if mask:
                    counts["gcn.masked_passes"] += 1
                if restrict is not None:
                    return "gcn.restricted"
                if self._stack and self._stack[-1][0].startswith("baselines."):
                    return "gcn.baseline_pass"
                return "gcn.reference"
            return choose, None
        if span == "io.dump":
            def after(result, elapsed, args, kwargs):
                counts["io.out_bytes"] += os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else None))
            return None, after
        if span == "explain.enumerate":
            def after(result, elapsed, args, kwargs):
                counts["explain.candidates"] += len(result)
            return None, after
        if span == "explain.pairs":
            def after(result, elapsed, args, kwargs):
                counts["explain.pairs"] += len(result)
            return None, after
        if span == "pareto.rank":
            def after(result, elapsed, args, kwargs):
                counts["pareto.fronts"] += 1
                counts["pareto.front_size"] += result.front_size
            return None, after
        if span == "pipeline.node":
            def after(result, elapsed, args, kwargs):
                self.node_ms.append(elapsed * 1e3)
                counts["explain.memo_hits"] += getattr(result, "memo_hits", 0)
                counts["explain.distinct_forwards"] += getattr(result, "distinct_evaluations", 0)
            return None, after
        return None, None

    def _wrap(self, original, span, choose, after):
        stack = self._stack
        total, self_time, calls = self.total, self.self_time, self.calls

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = span if choose is None else choose(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                total[name] += elapsed
                self_time[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(result, elapsed, args, kwargs)
            return result

        return wrapper


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, nodes: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metric values, keyed as in ``PER_LAYER``."""
    t, s, n, c = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    full_calls = n["gcn.reference"] + n["gcn.baseline_pass"]
    hits, distinct = c["explain.memo_hits"], c["explain.distinct_forwards"]
    return {
        "io.dump_ms_per_node": t["io.dump"] * 1e3 / nodes,
        "io.out_kib_per_node": c["io.out_bytes"] / 1024 / nodes,
        "cli.document_ms_per_node": t["cli.document"] * 1e3 / nodes,
        "pipeline.node_ms_p50": statistics.median(tracer.node_ms) if tracer.node_ms else 0.0,
        "pipeline.node_ms_max": max(tracer.node_ms, default=0.0),
        "graph.order_ms_per_node": t["graph.order"] * 1e3 / nodes,
        "explain.enumerate_ms_per_node": s["explain.enumerate"] * 1e3 / nodes,
        "explain.candidates_per_node": c["explain.candidates"] / nodes,
        "explain.pairs_ms_per_node": t["explain.pairs"] * 1e3 / nodes,
        "explain.pairs_per_node": c["explain.pairs"] / nodes,
        "explain.score_ms_per_node": s["explain.score"] * 1e3 / nodes,
        "explain.memo_hit_ratio": _ratio(hits, hits + distinct),
        "gcn.reference_ms_per_node": t["gcn.reference"] * 1e3 / nodes,
        "gcn.restricted_forwards_per_node": n["gcn.restricted"] / nodes,
        "gcn.restricted_forward_us": _ratio(t["gcn.restricted"] * 1e6, n["gcn.restricted"]),
        "gcn.full_pass_ms": _ratio((t["gcn.reference"] + t["gcn.baseline_pass"]) * 1e3, full_calls),
        "baselines.grad_fd_ms_per_node": t["baselines.grad_fd"] * 1e3 / nodes,
        "baselines.masked_passes_per_node": c["gcn.masked_passes"] / nodes,
        "pareto.rank_ms_per_node": t["pareto.rank"] * 1e3 / nodes,
        "pareto.front_size_mean": _ratio(c["pareto.front_size"], c["pareto.fronts"]),
        "trace.unattributed_frac": _ratio(s["cli.run"], t["cli.run"]),
        "trace.overhead_frac": _ratio(traced_s, untraced_s) - 1.0,
    }


def stage_shares(tracer: Tracer) -> dict:
    """Share of ``cli.run`` time per stage; the shares sum to 1."""
    run = tracer.total["cli.run"]
    return {stage: _ratio(sum(tracer.self_time[s] for s in spans), run) for stage, spans in STAGES}
