"""Seeded workloads of the explain benchmark.

Every workload is a ``moexp.synth`` graph plus ``explain`` flags. The graph
seed and the target draws both come from the benchmark's ``--seed``; the
program only ever sees the generated files and the target lists. All use
``-D 2``.

Every explain child of a run gets the same targets, so the children do
identical work and differ only by the host's speed (see ``run.py``). Erdos
targets are drawn from the saturated nodes: the node and all its neighbours
are at the degree cap (``max_degree``). Their work is close between seeds:
the C=5 candidate count varies by 2-5 % between such nodes, against 6-14 %
over nodes at the cap and 30-60 % over all nodes, and that variance would
otherwise show as run-to-run spread of ``nodes_per_s``.

grad-fd makes one masked full-graph pass per edge of the target's D-hop
ball, and that count ranges 70-100 over saturated nodes, so its targets
are further drawn from the saturated nodes whose ball has ``ball_edges``
edges (or the nearest count any of them has). Every seed then asks for
the same number of passes.

Sizes keep one child between 1 and 3 s, so a run measures many. The star
has 20 leaves: with 40, one child of all 41 nodes takes 14-19 s and a run
measured that one child. grad-fd uses a 600-node graph with the same degree
profile: on the 2000-node graph one target takes 3-5 s.

``BENCHMARK.json`` lists only ``erdos-c4-docs`` and ``erdos-gradfd``, which
between them reach every module; the other two run by name or with
``--workload all``. See ``BASELINE.md`` for why.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ERDOS = {"nodes": 2000, "p": 0.008, "max_degree": 8, "classes": 4}
# Same degree profile at under a third of the size, so one grad-fd child
# takes ~1.5 s.
ERDOS_SMALL = {"nodes": 600, "p": 0.0267, "max_degree": 8, "classes": 4}


@dataclass(frozen=True)
class Workload:
    """One input family and the flags each ``explain`` child gets.

    ``batch`` is the number of targets per child; ``None`` means every node
    of the graph in every child. ``ball_edges``, when set, is the D-hop
    ball size targets are drawn at.
    """

    name: str
    why: str
    kind: str
    params: dict
    flags: tuple
    batch: int | None
    ball_edges: int | None = None

    @property
    def method(self) -> str:
        flags = self.flags
        return flags[flags.index("--method") + 1] if "--method" in flags else "pareto-rank"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "erdos-c4-docs",
            "Default CLI use (C=4, every pair embedded): reference pass, JSON dump and "
            "canonical ordering scale with N and document size.",
            "erdos",
            ERDOS,
            ("-C", "4"),
            6,
        ),
        Workload(
            "erdos-c5-score",
            "C=5 with --top-percent 1: restricted forwards and pair scoring dominate; "
            "a serializer change should not show here.",
            "erdos",
            ERDOS,
            ("-C", "5", "--top-percent", "1"),
            2,
        ),
        Workload(
            "erdos-gradfd",
            "grad-fd runs one masked full-graph pass per ball edge (600-node graph, 84-edge ball): "
            "restricting work to the L-hop ball shows here, batching restricted trees does not.",
            "erdos",
            ERDOS_SMALL,
            ("-C", "4", "--method", "grad-fd"),
            1,
            ball_edges=84,
        ),
        Workload(
            "star-hub-exh",
            "20-leaf star, all 21 nodes, exhaustive pairs, balanced selection: heavy-tailed "
            "per-node cost (hub: 1.4k candidates, 3.7 MB document) and the main peak_rss_mb mover.",
            "star",
            {"leaves": 20, "classes": 4},
            ("-C", "4", "--exhaustive-cf", "--method", "balanced"),
            None,
        ),
    )
}

# Tiny input for the benchmark's own smoke test; not part of BENCHMARK.json.
SMOKE = Workload(
    "planted-motif-smoke",
    "Seconds-long check of both the untraced and the traced path.",
    "planted-motif",
    {"background": 6, "classes": 3},
    ("-C", "4"),
    None,
)


def ball_edge_count(graph, target: int, hops: int) -> int:
    """Edges with both endpoints within ``hops`` hops of ``target``."""
    ball, frontier = {target}, [target]
    for _ in range(hops):
        frontier = [u for v in frontier for u in graph.adjacency[v] if u not in ball]
        ball.update(frontier)
    return sum(u in ball and w in ball for u, w in graph.edges)


def draw_targets(workload: Workload, graph, seed: int) -> list:
    """The targets every explain child of one run gets, drawn from ``seed``."""
    if workload.batch is None:
        return list(range(graph.node_count))
    adj = graph.adjacency
    cap = max(len(nbrs) for nbrs in adj)
    population = [v for v in range(graph.node_count) if all(len(adj[u]) == cap for u in (v, *adj[v]))]
    if workload.ball_edges is not None and population:
        sizes = {v: ball_edge_count(graph, v, 2) for v in population}
        nearest = min(abs(size - workload.ball_edges) for size in sizes.values())
        population = [v for v in population if abs(sizes[v] - workload.ball_edges) == nearest]
    if len(population) < workload.batch:
        raise ValueError(f"{workload.name}: fewer than {workload.batch} saturated nodes")
    return sorted(random.Random(f"{workload.name}/{seed}").sample(population, workload.batch))
