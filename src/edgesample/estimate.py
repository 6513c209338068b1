"""Directed-edge-count estimates feeding the sampler's threshold.

The sampler only needs an estimate m_hat with m <= m_hat <= 2 m (with
constant probability); any estimator honoring that contract can plug in
here. Two built-ins:

* ``exact`` reads the true count off the graph without consuming
  metered queries; it isolates sampler behavior from estimation error.
* ``degree-sum-mc`` averages the degrees of s uniformly sampled
  vertices, scales by n, and multiplies by 1.5 to center the average
  inside [m, 2m] once the relative error of the average is under 1/3.

``estimate_edges_amplified`` takes the median of an odd number of
independent runs, driving the failure probability down exponentially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .oracle import QueryCounts, QueryOracle, bulk_graph


@dataclass
class EdgeEstimate:
    """An estimate of the directed edge count and what it cost."""

    m_hat: float
    queries_used: QueryCounts
    method: str


def _exact(oracle: QueryOracle, samples: int | None) -> float:
    return float(oracle.graph.m_dir)


def _degree_sum_mc(oracle: QueryOracle, samples: int | None) -> float:
    s = _auto_samples(oracle) if samples is None else samples
    if s < 1:
        raise ValueError(f"sample count must be >= 1, got {s}")
    graph = bulk_graph(oracle)
    total = 0
    if graph is None:
        degree, random_vertex = oracle.degree, oracle.random_vertex
        for _ in range(s):
            total += degree(random_vertex())
    else:  # random_vertex and degree inline, charged once
        o, n, n_bits = graph._o, oracle._n, oracle._n_bits
        getrandbits = oracle.rng.getrandbits
        for _ in range(s):
            u = getrandbits(n_bits)
            while u >= n:
                u = getrandbits(n_bits)
            total += o[u + 1] - o[u]
        oracle.counts.vertex += s
        oracle.counts.degree += s
    # 1.5x centers the scaled average inside [m, 2m]; never report zero.
    return max(1.0, 1.5 * oracle.n * total / s)


def _auto_samples(oracle: QueryOracle) -> int:
    """One doubling round: s from a pilot estimate that starts at m_hat = n."""
    pilot_s = max(1, math.ceil(oracle.n / math.sqrt(oracle.n)))
    pilot = _degree_sum_mc(oracle, pilot_s)
    return max(1, math.ceil(oracle.n / math.sqrt(pilot)))


ESTIMATORS = {
    "exact": _exact,
    "degree-sum-mc": _degree_sum_mc,
}


def estimate_edges(
    oracle: QueryOracle, estimator: str = "degree-sum-mc", samples: int | None = None
) -> EdgeEstimate:
    """Run one estimator pass; see module docstring for the built-ins."""
    if oracle.graph.m_dir < 2:
        raise ValueError("graph has no edges to estimate")
    try:
        fn = ESTIMATORS[estimator]
    except KeyError:
        raise ValueError(
            f"unknown estimator {estimator!r}; choose from {sorted(ESTIMATORS)}"
        ) from None
    before = oracle.counts.copy()
    m_hat = fn(oracle, samples)
    return EdgeEstimate(m_hat=m_hat, queries_used=oracle.counts - before, method=estimator)


def estimate_edges_amplified(
    oracle: QueryOracle,
    estimator: str = "degree-sum-mc",
    samples: int | None = None,
    repetitions: int = 1,
) -> EdgeEstimate:
    """Median of an odd number of independent estimates.

    If one run lands in [m, 2m] with probability p > 1/2, the median of r
    runs does so with probability >= 1 - exp(-2 r (p - 1/2)^2).
    """
    if repetitions < 1 or repetitions % 2 == 0:
        raise ValueError(f"repetitions must be odd and >= 1, got {repetitions}")
    before = oracle.counts.copy()
    values = sorted(
        estimate_edges(oracle, estimator, samples).m_hat for _ in range(repetitions)
    )
    return EdgeEstimate(
        m_hat=values[repetitions // 2],
        queries_used=oracle.counts - before,
        method=f"{estimator}-median-{repetitions}",
    )
