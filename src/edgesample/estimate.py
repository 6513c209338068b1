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
  it, each pass reads its degree sum off the oracle's pool
  (``oracle._degree_sum``: the pilot the next pilot_s ids, the main pass
  the s after them), two reads of the pool's prefix sums charged as one
  vertex and one degree query an id. One refill of the pool serves about
  ten estimates.

``estimate_edges_amplified`` is the entry point: it takes the median of
an odd number r of independent runs (one by default), driving the
failure probability down exponentially in r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .oracle import QueryCounts, QueryOracle, bulk_graph


@dataclass(slots=True)
class EdgeEstimate:
    """An estimate of the directed edge count and what it cost."""

    m_hat: float
    queries_used: QueryCounts
    method: str


def _exact(oracle: QueryOracle, samples: int | None) -> float:
    return float(oracle.graph.m_dir)


def _degree_sum_mc(oracle: QueryOracle, samples: int | None) -> float:
    n = oracle.n
    total = oracle._degree_sum if bulk_graph(oracle) is not None else (
        lambda k: sum(oracle.degree(oracle.random_vertex()) for _ in range(k)))
    s = samples or _sample_count(n, _scaled(n, total(pilot := _sample_count(n, n)), pilot))
    return _scaled(n, total(s), s)


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
    arguments are checked once, for all r runs, and the charge is read off
    the two counters an estimator moves: vertex and degree queries.
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
    vertex, degree = oracle.counts.vertex, oracle.counts.degree
    m_hat = fn(oracle, samples) if repetitions == 1 else (
        sorted(fn(oracle, samples) for _ in range(repetitions))[repetitions // 2])
    c = oracle.counts
    return EdgeEstimate(m_hat, QueryCounts(c.vertex - vertex, c.degree - degree), f"{estimator}-median-{repetitions}")
