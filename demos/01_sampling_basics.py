"""Draw almost-uniform edges from a graph you can only query.

The sampler never sees the adjacency lists. It reaches the graph through
four metered query types (uniform vertex, degree, i-th neighbor, pair),
and still returns every directed edge with nearly the same probability,
including edges between high-degree vertices that naive vertex-then-
neighbor sampling would under-weight.
"""

from collections import Counter

from edgesample import QueryOracle, SamplerConfig, estimate_edges_amplified, sample_edge_almost_uniformly
from edgesample.generators import generate

# A lopsided graph: one hub with 40 spokes plus a sparse random part.
g = generate("clique_union:star:40,8", seed=7)
print(f"graph: n={g.n}, directed edges m={g.m_dir}, max degree {max(g.degrees())}")

oracle = QueryOracle(g, seed=2)

# Estimate the edge count through the oracle, then configure the sampler.
est = estimate_edges_amplified(oracle, "degree-sum-mc", samples=200)
cfg = SamplerConfig.for_graph(g.n, est.m_hat, epsilon=0.1)
print(f"estimated m_hat={est.m_hat:.0f} (true {g.m_dir}), theta={cfg.theta}, "
      f"attempt budget q={cfg.q}")

# Draw edges. Naive vertex+neighbor sampling would hit each hub edge with
# probability 1/(n d(hub)) -- far less often than a spoke edge.
draws = 40_000
counts = Counter()
failures = 0
queries_before = oracle.counts.total
for _ in range(draws):
    report = sample_edge_almost_uniformly(oracle, cfg)
    if report.outcome is None:
        failures += 1
    else:
        counts[report.outcome] += 1

returned = draws - failures
print(f"\n{draws} runs, {failures} failures ({failures / draws:.2%}), "
      f"{(oracle.counts.total - queries_before) / draws:.1f} queries per run")

hub = max(range(g.n), key=g.degree)
hub_out = sum(c for e, c in counts.items() if e.origin == hub) / g.degree(hub)
spoke_avg = sum(c for e, c in counts.items() if g.degree(e.origin) == 1) / sum(
    1 for v in range(g.n) if g.degree(v) == 1
)
print(f"mean count per hub-origin edge:  {hub_out:8.1f}")
print(f"mean count per spoke-origin edge:{spoke_avg:8.1f}")
print(f"uniform target per edge:         {returned / g.m_dir:8.1f}")
print("\nhub edges and spoke edges land within a few percent of each other,")
print("even though the hub's degree is 40x a spoke's.")
