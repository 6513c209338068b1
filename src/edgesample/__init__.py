"""Almost-uniform edge sampling behind a metered graph-query oracle.

Modules
-------
graph       : immutable CSR graphs, edge-list I/O
generators  : deterministic test-graph generators and the ``kind:args`` grammar
oracle      : the four metered query types with per-type counters
estimate    : pluggable directed-edge-count estimators with median boosting
sampler     : the light/heavy mixture sampler, fallback, and derived samplers
analytic    : degree partition, exact attempt distributions held per vertex, closeness
experiments : Monte Carlo scoring, query-cost scaling, hidden-clique budgets
cli         : ``edgesample`` command-line front end
"""

from .analytic import (
    ClosenessReport,
    DegreePartition,
    attempt_distribution,
    conditional_closeness,
    enumerate_attempt_distribution,
    partition,
    verify_attempt_bounds,
    vertex_return_distribution,
)
from .estimate import EdgeEstimate, estimate_edges, estimate_edges_amplified
from .experiments import empirical_distribution
from .graph import (
    DirectedEdge,
    Graph,
    GraphConstructionError,
    RelabeledView,
    build_graph,
    read_edge_list,
    write_edge_list,
)
from .oracle import BudgetExceeded, QueryCounts, QueryOracle
from .sampler import (
    SampleReport,
    SamplerConfig,
    sample_degree_proportional_vertex,
    sample_edge_almost_uniformly,
    weighted_expectation,
)

__all__ = [
    "BudgetExceeded",
    "ClosenessReport",
    "DegreePartition",
    "DirectedEdge",
    "EdgeEstimate",
    "Graph",
    "GraphConstructionError",
    "QueryCounts",
    "QueryOracle",
    "RelabeledView",
    "SampleReport",
    "SamplerConfig",
    "attempt_distribution",
    "build_graph",
    "conditional_closeness",
    "empirical_distribution",
    "enumerate_attempt_distribution",
    "estimate_edges",
    "estimate_edges_amplified",
    "partition",
    "read_edge_list",
    "sample_degree_proportional_vertex",
    "sample_edge_almost_uniformly",
    "verify_attempt_bounds",
    "vertex_return_distribution",
    "weighted_expectation",
    "write_edge_list",
]

__version__ = "0.1.0"
