"""Multi-objective subgraph explanations for GCN node predictions.

The engine enumerates small tree-shaped subgraphs around a target node,
scores each explanation/counterfactual pair on simulatability and
counterfactual relevance, and picks a Pareto-optimal pair by rank
aggregation. Baseline explainers, confounder analysis, and robustness
sweeps share the same scoring machinery. Everything here is pure and
seeded, so runs are reproducible bit for bit.

The public names are loaded on first use (PEP 562), so a process imports
only the modules it reads: an ``explain`` run loads neither ``synth`` nor
``commands``, and ``analysis`` only for ``--method random``.
"""

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    "Ball": "graph",
    "Graph": "graph",
    "build_graph": "graph",
    "canonical_order": "graph",
    "confounder_set": "graph",
    "ACTIVATIONS": "gcn",
    "Model": "gcn",
    "forward": "gcn",
    "forward_hidden": "gcn",
    "node_embeddings": "gcn",
    "softmax": "gcn",
    "CandidateScorer": "explain",
    "DEFAULT_EPSILON": "explain",
    "EnumConfig": "explain",
    "Enumeration": "explain",
    "enumerate_subgraphs": "explain",
    "generate_pairs": "explain",
    "simulatability": "explain",
    "ScoredFront": "pareto",
    "rank_pairs": "pareto",
    "ShapleyValue": "baselines",
    "grad_weights_analytic": "baselines",
    "grad_weights_fd": "baselines",
    "neighborhood_edge_ids": "baselines",
    "random_weights": "baselines",
    "shapley_selection": "baselines",
    "shapley_values": "baselines",
    "METHODS": "pipeline",
    "NodeExplanation": "pipeline",
    "explain_node": "pipeline",
    "explain_scored": "pipeline",
    "MessagePerturbation": "analysis",
    "PerturbRecord": "analysis",
    "derive_seed": "analysis",
    "jaccard_distance": "analysis",
    "perturb_message": "analysis",
    "perturb_weights": "analysis",
    "run_sanity_sweep": "analysis",
    "KINDS": "synth",
    "prototype_model": "synth",
    "synth_graph": "synth",
    "FormatError": "io",
    "load_edge_weights": "io",
    "load_graph": "io",
    "load_model": "io",
    "load_weights": "io",
    "save_edge_weights": "io",
    "save_graph": "io",
    "save_model": "io",
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "commands"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        value = getattr(import_module("." + _EXPORTS[name], __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
