"""Directed-edge-count estimates feeding the sampler's threshold.

The sampler only needs an estimate m_hat with m <= m_hat <= 2 m (with
constant probability); any estimator honoring that contract can plug in
here. Two built-ins:

* ``exact`` reads the true count off the graph without consuming
  metered queries; it isolates sampler behavior from estimation error.
* ``degree-sum-mc`` averages the degrees of s uniformly sampled
  vertices, scales by n, and multiplies by 1.5 to center the average
  inside [m, 2m] once the relative error of the average is under 1/3.
  Without a given s, a pilot pass of ceil(sqrt(n)) samples (sized for
  m_hat = n) sets s from its estimate. Where ``oracle.bulk_graph`` allows
  it, each pass reads its vertices from the oracle's pool
  (``oracle._vertices``: the pilot the next pilot_s ids, the main pass
  the s after them), sums their degrees with one gather and one reduce,
  and charges its queries once. One refill of the pool serves about ten
  estimates.

``estimate_edges_amplified`` is the entry point: it takes the median of
an odd number r of independent runs (one by default), driving the
failure probability down exponentially in r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    n, graph = oracle.n, bulk_graph(oracle)
    s = samples or _sample_count(n, _degree_sum_mc(oracle, _sample_count(n, n)))
    if graph is None:
        return _scaled(n, sum(oracle.degree(oracle.random_vertex()) for _ in range(s)), s)
    o, u, c = graph.offsets, oracle._vertices(s), oracle.counts
    c.vertex += s
    c.degree += s
    return _scaled(n, int(np.add.reduce(o[1:][u] - o[u])), s)


def _scaled(n: int, total: int, s: int) -> float:
    """n times the mean of s sampled degrees, times 1.5 to center it inside [m, 2m]; never zero."""
    return max(1.0, 1.5 * n * total / s)


def _sample_count(n: int, m_hat: float) -> int:
    """ceil(n / sqrt(m_hat)): the pilot's at m_hat = n, the main pass's at the pilot's estimate."""
    return max(1, math.ceil(n / math.sqrt(m_hat)))


ESTIMATORS = {
    "exact": _exact,
    "degree-sum-mc": _degree_sum_mc,
}


def estimate_edges_amplified(
    oracle: QueryOracle,
    estimator: str = "degree-sum-mc",
    samples: int | None = None,
    repetitions: int = 1,
) -> EdgeEstimate:
    """Median of an odd number of independent estimates.

    If one run lands in [m, 2m] with probability p > 1/2, the median of r
    runs does so with probability >= 1 - exp(-2 r (p - 1/2)^2). The
    arguments are checked and the counters copied once, for all r runs.
    """
    if repetitions < 1 or repetitions % 2 == 0:
        raise ValueError(f"repetitions must be odd and >= 1, got {repetitions}")
    if samples is not None and samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    if oracle.graph.m_dir < 2:
        raise ValueError("graph has no edges to estimate")
    try:
        fn = ESTIMATORS[estimator]
    except KeyError:
        raise ValueError(
            f"unknown estimator {estimator!r}; choose from {sorted(ESTIMATORS)}"
        ) from None
    before = oracle.counts.copy()
    values = sorted(fn(oracle, samples) for _ in range(repetitions))
    return EdgeEstimate(values[repetitions // 2], oracle.counts - before, f"{estimator}-median-{repetitions}")
