"""Almost-uniform directed-edge sampling through the query oracle.

One attempt flips a fair coin between two tracks over a degree threshold
theta:

* light track: uniform vertex u, fail if d(u) > theta, uniform slot
  j in [theta], return (u, j-th neighbor) if the slot is occupied. Every
  edge out of a light vertex wins with probability exactly 1/(n theta).
* heavy track: reach a heavy vertex v through a uniform occupied slot of
  a light vertex, then return (v, w) for a uniform neighbor w of v. A
  heavy edge (v, w) wins with probability d_L(v) / (n theta d(v)).

With theta >= sqrt(2 m / eps), per-attempt probabilities of any two edges
agree within a factor 1/(1 - eps/2), so the conditional distribution is
pointwise eps-close to uniform. The main routine budgets
q = ceil(10 n / ((1 - eps) sqrt(eps m_hat))) attempts; when that exceeds
n it reverts to the exactly-uniform (but slower per success) uniform-slot
fallback.

Every attempt draws its random numbers in a fixed order: the coin
(``rng.random()``), the vertex query (from ``oracle.rng``), the slot j,
then on the heavy track the neighbor index of v. Slots and indices are
drawn inline by ``getrandbits`` rejection, which is exactly what
``rng.randint(1, k)`` does, and the vertex query matches
``oracle.rng.randrange(n)``; a run consumes the same numbers as one
written with those calls, and replays bit-for-bit under the same seed.
All mixture attempts run in one loop, ``_attempts``, which reads the
graph directly only where ``oracle.bulk_graph`` allows it.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .graph import DirectedEdge, Graph
from .oracle import QueryCounts, QueryOracle, bulk_graph


def threshold_for(m_hat: float, epsilon: float) -> int:
    """Smallest integer theta >= 1 with theta^2 epsilon >= 2 m_hat.

    Computed in exact integers from the floats' ratios, so no rounding of
    a square root can undercut the bound.
    """
    a, b = m_hat.as_integer_ratio()
    c, d = epsilon.as_integer_ratio()
    bound = -(-2 * a * d // (b * c))  # ceil(2 m_hat / epsilon)
    return math.isqrt(max(bound, 1) - 1) + 1


def attempt_budget(n: int, m_hat: float, epsilon: float) -> int:
    """ceil(10 n / ((1 - epsilon) sqrt(epsilon m_hat)))."""
    return max(1, math.ceil(10.0 * n / ((1.0 - epsilon) * math.sqrt(epsilon * m_hat))))


def _check_epsilon_m_hat(epsilon: float, m_hat: float) -> None:
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie strictly inside (0, 0.5), got {epsilon}")
    if m_hat <= 0:
        raise ValueError(f"edge estimate must be positive, got {m_hat}")


@dataclass(frozen=True)
class SamplerConfig:
    """Resolved parameters of one sampling run."""

    epsilon: float
    m_hat: float
    theta: int
    q: int

    def __post_init__(self):
        _check_epsilon_m_hat(self.epsilon, self.m_hat)
        if self.theta < 1 or self.q < 1:
            raise ValueError("theta and q must be >= 1")

    @classmethod
    def for_graph(cls, n: int, m_hat: float, epsilon: float) -> "SamplerConfig":
        _check_epsilon_m_hat(epsilon, m_hat)
        return cls(
            epsilon=epsilon,
            m_hat=m_hat,
            theta=threshold_for(m_hat, epsilon),
            q=attempt_budget(n, m_hat, epsilon),
        )


@dataclass
class SampleReport:
    """Outcome of one sampling run; outcome None means Failure."""

    outcome: DirectedEdge | None
    attempts_used: int
    queries: QueryCounts
    config: SamplerConfig | None
    used_fallback: bool = False

    @property
    def failed(self) -> bool:
        return self.outcome is None


def _attempts(
    oracle: QueryOracle, theta: int, limit: int, rng: random.Random
) -> tuple[DirectedEdge | None, int]:
    """Run up to ``limit`` mixture attempts; return (edge, attempts used).

    The one attempt of every mixture sampler. A fair coin picks a track;
    both start from a uniform vertex u, which fails if heavy (d(u) > theta),
    and a uniform slot j in [theta] of u, which fails if empty. The light
    track returns (u, v) for the slot's occupant v. The heavy track fails
    unless v is heavy, and returns (v, w) for a uniform neighbor w of v;
    d(v) is queried once, both for the test and for the pick, so an
    attempt makes at most two degree queries. ``1 + r`` with ``r`` drawn
    by ``getrandbits(k)`` rejection below ``x`` is ``rng.randint(1, x)``.
    When ``bulk_graph(oracle)`` gives a graph, ``_bulk_attempts`` runs
    the same attempts on it; otherwise every query goes through the
    oracle's methods.
    """
    theta = operator.index(theta)
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    graph = bulk_graph(oracle)
    if graph is not None:
        return _bulk_attempts(oracle, graph, theta, limit, rng)
    k = theta.bit_length()
    coin = rng.random
    getrandbits = rng.getrandbits
    random_vertex = oracle.random_vertex
    degree = oracle.degree
    neighbor = oracle.neighbor
    for attempt in range(1, limit + 1):
        light = coin() < 0.5
        u = random_vertex()
        if degree(u) > theta:
            continue
        j = getrandbits(k)
        while j >= theta:
            j = getrandbits(k)
        v = neighbor(u, j + 1)
        if v is None:
            continue
        if light:
            return DirectedEdge(u, v), attempt
        dv = degree(v)
        if dv <= theta:
            continue
        kv = dv.bit_length()
        i = getrandbits(kv)
        while i >= dv:
            i = getrandbits(kv)
        return DirectedEdge(v, neighbor(v, i + 1)), attempt
    return None, limit


def _bulk_attempts(
    oracle: QueryOracle, graph: Graph, theta: int, limit: int, rng: random.Random
) -> tuple[DirectedEdge | None, int]:
    """``_attempts`` on the CSR lists of ``graph``, charged in bulk.

    The same random numbers in the same order: the vertex by
    ``random_vertex``'s rejection on ``oracle.rng``, then the slot and
    index on ``rng``. Every attempt queries a vertex and its degree, and
    its slot unless the start is heavy, so only heavy starts, degree
    queries of hit vertices and the final heavy-track pick are tallied;
    the counts go to ``oracle.counts`` when the loop ends.
    """
    o, t = graph._o, graph._t
    n, n_bits = oracle._n, oracle._n_bits
    vertex_bits = oracle.rng.getrandbits
    coin = rng.random
    getrandbits = rng.getrandbits
    k = theta.bit_length()
    edge = None
    attempt = heavy_starts = hits = picks = 0
    for attempt in range(1, limit + 1):
        light = coin() < 0.5
        u = vertex_bits(n_bits)
        while u >= n:
            u = vertex_bits(n_bits)
        start = o[u]
        du = o[u + 1] - start
        if du > theta:
            heavy_starts += 1
            continue
        j = getrandbits(k)
        while j >= theta:
            j = getrandbits(k)
        if j >= du:
            continue
        v = t[start + j]
        if light:
            edge = DirectedEdge(u, v)
            break
        hits += 1
        start = o[v]
        dv = o[v + 1] - start
        if dv <= theta:
            continue
        kv = dv.bit_length()
        i = getrandbits(kv)
        while i >= dv:
            i = getrandbits(kv)
        picks = 1
        edge = DirectedEdge(v, t[start + i])
        break
    c = oracle.counts
    c.vertex += attempt
    c.degree += attempt + hits
    c.neighbor += attempt - heavy_starts + picks
    return edge, attempt


def mixture_attempt(oracle: QueryOracle, theta: int, rng: random.Random | None = None) -> DirectedEdge | None:
    """Fair coin between the light and heavy tracks."""
    return _attempts(oracle, theta, 1, oracle.rng if rng is None else rng)[0]


def sample_edge_almost_uniformly(
    oracle: QueryOracle, config: SamplerConfig, rng: random.Random | None = None
) -> SampleReport:
    """Run up to q mixture attempts; revert to the fallback when q > n."""
    rng = oracle.rng if rng is None else rng
    if config.q > oracle.n:
        return fallback_uniform_edge(oracle, rng=rng, config=config)
    before = oracle.counts.copy()
    edge, used = _attempts(oracle, config.theta, config.q, rng)
    return SampleReport(
        outcome=edge,
        attempts_used=used,
        queries=oracle.counts - before,
        config=config,
    )


def fallback_uniform_edge(
    oracle: QueryOracle,
    rng: random.Random | None = None,
    budget: int | None = None,
    config: SamplerConfig | None = None,
) -> SampleReport:
    """Exactly-uniform sampler: uniform vertex, uniform slot in [n].

    Each attempt returns any specific directed edge with probability
    1/n^2, so the conditional distribution is exactly uniform. Budget
    defaults to n attempts. The slot is drawn inline, as in ``_attempts``.
    """
    rng = oracle.rng if rng is None else rng
    n = oracle.n
    if n < 1:
        raise ValueError("graph has no vertices")
    budget = n if budget is None else budget
    before = oracle.counts.copy()
    getrandbits = rng.getrandbits
    k = n.bit_length()
    for attempt in range(1, budget + 1):
        u = oracle.random_vertex()
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        v = oracle.neighbor(u, i + 1)
        if v is not None:
            return SampleReport(
                outcome=DirectedEdge(u, v),
                attempts_used=attempt,
                queries=oracle.counts - before,
                config=config,
                used_fallback=True,
            )
    return SampleReport(
        outcome=None,
        attempts_used=budget,
        queries=oracle.counts - before,
        config=config,
        used_fallback=True,
    )


def sample_undirected_edge(
    oracle: QueryOracle, config: SamplerConfig, rng: random.Random | None = None
) -> tuple[tuple[int, int] | None, SampleReport]:
    """Sample a directed edge and forget its orientation.

    Each undirected edge owns exactly two directed versions, so its
    probability is their sum and inherits the pointwise closeness bound
    over the undirected edge set.
    """
    report = sample_edge_almost_uniformly(oracle, config, rng)
    if report.outcome is None:
        return None, report
    return report.outcome.undirected(), report


def sample_degree_proportional_vertex(
    oracle: QueryOracle, config: SamplerConfig, rng: random.Random | None = None
) -> tuple[int | None, SampleReport]:
    """Sample a vertex with probability close to d(v) / m_dir.

    Samples an edge almost uniformly and returns either endpoint with
    probability 1/2; v sits in d(v) directed edges as origin and d(v) as
    target, so the exactly-uniform case lands on d(v)/m_dir.
    """
    rng = oracle.rng if rng is None else rng
    report = sample_edge_almost_uniformly(oracle, config, rng)
    if report.outcome is None:
        return None, report
    v = report.outcome.origin if rng.random() < 0.5 else report.outcome.target
    return v, report


@dataclass
class WeightedExpectation:
    """Monte Carlo mean of an edge weight under the sampling distribution."""

    mean: float
    std_error: float
    samples: int
    failures: int
    queries: QueryCounts = field(default_factory=QueryCounts)


def weighted_expectation(
    oracle: QueryOracle,
    config: SamplerConfig,
    weight: Mapping[tuple[int, int], float] | Callable[[DirectedEdge], float],
    samples: int,
    rng: random.Random | None = None,
    max_failures_per_draw: int = 100,
) -> WeightedExpectation:
    """Average an edge weight over ``samples`` successful draws.

    The sampling distribution is pointwise eps-close to uniform, so the
    limit of the mean is within eps * |uniform mean| of the uniform mean.
    Raises RuntimeError if one draw fails ``max_failures_per_draw`` times
    in a row.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    weight_fn = weight if callable(weight) else weight.__getitem__
    rng = oracle.rng if rng is None else rng
    before = oracle.counts.copy()
    total = 0.0
    total_sq = 0.0
    failures = 0
    for _ in range(samples):
        for _retry in range(max_failures_per_draw):
            report = sample_edge_almost_uniformly(oracle, config, rng)
            if report.outcome is not None:
                w = float(weight_fn(report.outcome))
                total += w
                total_sq += w * w
                break
            failures += 1
        else:
            raise RuntimeError(
                f"a draw failed {max_failures_per_draw} consecutive times"
            )
    mean = total / samples
    variance = max(0.0, total_sq / samples - mean * mean)
    return WeightedExpectation(
        mean=mean,
        std_error=math.sqrt(variance / samples),
        samples=samples,
        failures=failures,
        queries=oracle.counts - before,
    )
