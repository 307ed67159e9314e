"""Multi-objective subgraph explanations for GCN node predictions.

The engine enumerates small tree-shaped subgraphs around a target node,
scores each explanation/counterfactual pair on simulatability and
counterfactual relevance, and picks a Pareto-optimal pair by rank
aggregation. Baseline explainers, confounder analysis, and robustness
sweeps share the same scoring machinery. Everything here is pure and
seeded, so runs are reproducible bit for bit.
"""

__version__ = "0.1.0"

from .graph import (
    Ball,
    CYCLIC,
    DISCONNECTED,
    MISSING_TARGET,
    CanonicalOrder,
    Graph,
    Subgraph,
    build_graph,
    canonical_order,
    l_hop_neighborhood,
    make_subgraph,
    target_ball,
    validate_subgraph,
)
from .gcn import (
    ACTIVATIONS,
    Model,
    forward,
    forward_hidden,
    load_weights,
    node_embeddings,
    softmax,
)
from .explain import (
    CandidateScorer,
    DEFAULT_EPSILON,
    EnumConfig,
    Enumeration,
    cf_relevance,
    enumerate_subgraphs,
    generate_pairs,
    simulatability,
)
from .pareto import (
    ScoredFront,
    competition_ranks,
    pareto_front,
    rank_pairs,
)
from .baselines import (
    ShapleyValue,
    grad_weights_analytic,
    grad_weights_fd,
    grow_subgraph,
    neighborhood_edge_ids,
    random_weights,
    set_shapley_value,
    shapley_selection,
    shapley_values,
)
from .pipeline import METHODS, NodeExplanation, explain_node
from .analysis import (
    MessagePerturbation,
    PerturbRecord,
    confounder_set,
    derive_seed,
    jaccard_distance,
    perturb_message,
    perturb_weights,
    run_sanity_sweep,
)
from .synth import KINDS, prototype_model, synth_graph
from .io import (
    FormatError,
    load_edge_weights,
    load_graph,
    load_model,
    save_edge_weights,
    save_graph,
    save_model,
)

__all__ = [
    "ACTIVATIONS",
    "Ball",
    "CYCLIC",
    "CandidateScorer",
    "CanonicalOrder",
    "DEFAULT_EPSILON",
    "DISCONNECTED",
    "EnumConfig",
    "Enumeration",
    "FormatError",
    "Graph",
    "KINDS",
    "METHODS",
    "MISSING_TARGET",
    "MessagePerturbation",
    "Model",
    "NodeExplanation",
    "PerturbRecord",
    "ScoredFront",
    "ShapleyValue",
    "Subgraph",
    "build_graph",
    "canonical_order",
    "cf_relevance",
    "competition_ranks",
    "confounder_set",
    "derive_seed",
    "enumerate_subgraphs",
    "explain_node",
    "forward",
    "forward_hidden",
    "generate_pairs",
    "grad_weights_analytic",
    "grad_weights_fd",
    "grow_subgraph",
    "jaccard_distance",
    "l_hop_neighborhood",
    "load_edge_weights",
    "load_graph",
    "load_model",
    "load_weights",
    "make_subgraph",
    "neighborhood_edge_ids",
    "node_embeddings",
    "pareto_front",
    "perturb_message",
    "perturb_weights",
    "prototype_model",
    "random_weights",
    "rank_pairs",
    "run_sanity_sweep",
    "save_edge_weights",
    "save_graph",
    "save_model",
    "set_shapley_value",
    "shapley_selection",
    "shapley_values",
    "simulatability",
    "softmax",
    "synth_graph",
    "target_ball",
    "validate_subgraph",
]
