"""coldroute: cold-start LLM routing from public model-card signals.

The package builds a heterogeneous evidence graph out of model cards
(families, descriptions, benchmark scores, benchmark domains, sampled
queries), turns each candidate model into a profile vector under a
four-way design space of aggregation strategies, routes queries against
those profiles with training-free or trained routers, and evaluates both
the fully cold-start protocol and frozen-router integration of brand-new
models.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import ColdRouteError
from .graph import (
    BenchmarkCard,
    CardSet,
    DomainCard,
    Edge,
    EdgeKind,
    EvidenceGraph,
    FamilyCard,
    ModelCard,
    Node,
    NodeKind,
    QueryRecord,
    add_model_node,
    build_graph,
    closed_neighborhood,
    load_cards,
    propagation_coefficient,
)
from .providers import (
    DeterministicEmbedder,
    EchoSummarizer,
    Providers,
    RemoteEmbedder,
    RemoteSummarizer,
    encode_all,
)
from .profiles import (
    Profile,
    ProfileSpec,
    TrainGnnModel,
    embgnn_propagate,
    flat_profile,
    load_profiles,
    make_profiles,
    save_profiles,
    traingnn_fit,
)
from .routers import (
    CandidatePool,
    GraphRouterLite,
    InteractionRecord,
    MlpRouter,
    RoutingDecision,
    SimRouter,
    graphrouter_fit,
    integrate_new_model,
    mlp_fit,
    router_checksum,
    sim_route,
)
from .evaluation import (
    EvalReport,
    IntegrationWorld,
    RewardTable,
    SynthWorld,
    SynthWorldConfig,
    average_performance,
    integration_world,
    ncir,
    oracle,
    random_baseline,
    run_coldstart,
    run_integration,
    single_best,
    synth_world,
)

__all__ = [
    "__version__",
    "ColdRouteError",
    # graph
    "BenchmarkCard", "CardSet", "DomainCard", "Edge", "EdgeKind", "EvidenceGraph",
    "FamilyCard", "ModelCard", "Node", "NodeKind", "QueryRecord",
    "add_model_node", "build_graph", "closed_neighborhood", "load_cards",
    "propagation_coefficient",
    # providers
    "DeterministicEmbedder", "EchoSummarizer", "Providers", "RemoteEmbedder",
    "RemoteSummarizer", "encode_all",
    # profiles
    "Profile", "ProfileSpec", "TrainGnnModel", "embgnn_propagate", "flat_profile",
    "load_profiles", "make_profiles", "save_profiles", "traingnn_fit",
    # routing
    "CandidatePool", "GraphRouterLite", "InteractionRecord", "MlpRouter",
    "RoutingDecision", "SimRouter", "graphrouter_fit", "integrate_new_model",
    "mlp_fit", "router_checksum", "sim_route",
    # evaluation
    "EvalReport", "IntegrationWorld", "RewardTable", "SynthWorld", "SynthWorldConfig",
    "average_performance", "integration_world", "ncir", "oracle", "random_baseline",
    "run_coldstart", "run_integration", "single_best", "synth_world",
]
