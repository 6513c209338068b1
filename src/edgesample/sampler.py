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

Runs are made in one of two ways with the same distribution of outcomes
and query counts (``_runs``): by ``_kernel`` in numpy blocks where
``oracle.bulk_graph`` allows it, else by ``_attempts`` through the
oracle's methods. Both draw from the seeded ``random.Random`` only, so a
run replays bit-for-bit.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

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
    """Up to ``limit`` mixture attempts through the oracle's methods: (edge, used).

    A fair coin picks a track; both start from a uniform vertex u, which
    fails if heavy (d(u) > theta), and a uniform slot j in [theta] of u,
    which fails if empty. The light track returns (u, v) for the slot's
    occupant v; the heavy track fails unless v is heavy, and returns (v, w)
    for a uniform neighbor w of v. ``1 + r`` with ``r`` drawn by
    ``getrandbits(k)`` rejection below ``x`` is ``rng.randint(1, x)``.
    """
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


def _kernel(
    graph: Graph, theta: int, q: int, runs: int, gen: np.random.Generator, fallback: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, QueryCounts]:
    """``runs`` runs of up to ``q`` attempts: one stream of i.i.d. attempts
    split at each win and after q failures in a row.

    A block draws ``gen.integers(n, size)`` vertices u and
    ``gen.integers(theta, size)`` slots j, then ``gen.random`` coins for the
    occupied slots of light starts (no other attempt depends on its coin)
    and ``gen.integers(d(v))`` picks for the heavy-track wins kept. It holds
    ``runs`` times the fewest attempts a run can expect to need (2 n theta /
    m_dir, at most q). With ``fallback`` an attempt is ``fallback_uniform_edge``'s:
    theta = n, no coin, no degree query. Returns each run's edge (-1, -1
    on a failure) and attempts, and the queries the method loop would charge.
    """
    offsets, targets, n, ends = graph.offsets, graph.targets, graph.n, graph.offsets[1:]
    per_run = min(q, -(-(1 if fallback else 2) * n * theta // graph.m_dir)) if graph.m_dir else q
    out = []
    done = carry = attempts = heavy_starts = heavy_hits = picks = 0
    while done < runs:
        left = runs - done
        size = min(1 << 16, left * per_run, left * q - carry)  # 1 << 16 bounds the memory
        u = gen.integers(n, size=size)
        j = gen.integers(theta, size=size)
        start = offsets[u]
        du = ends[u] - start
        cand = (j < du).nonzero()[0]  # the occupied slots and every heavy start
        heavy = du[cand] > theta
        hit = cand[~heavy]
        v = targets[start[hit] + j[hit]]
        light = np.ones(len(hit), bool) if fallback else gen.random(len(hit)) < 0.5
        won = light | (ends[v] - offsets[v] > theta)
        at = hit[won]
        used = at + 1  # the attempts since the previous win, ending with this one
        used[1:] -= at[:-1] + 1
        used[:1] += carry
        tail = size - int(at[-1]) - 1 if len(at) else size + carry
        win_at = None
        if tail >= q or (used > q).any():  # every q failures in a row are a failed run
            fails = (used - 1) // q
            win_at = np.arange(len(at)) + fails.cumsum()
            split = np.full(len(at) + int(fails.sum()) + tail // q, q)
            split[win_at] = used - fails * q
            used, tail = split, tail % q
        if len(used) >= left:  # the last run ends in this block
            used = used[:left]
            consumed = int(used.sum()) - carry
        else:
            consumed, carry = size, tail
        kept = len(used) if win_at is None else int(win_at.searchsorted(len(used)))
        wv, wl = v[won][:kept], light[won][:kept]
        origin, target = np.where(wl, u[at[:kept]], wv), wv.copy()
        h = (~wl).nonzero()[0]  # heavy-track wins return a uniform neighbour of v
        if len(h):
            base = offsets[wv[h]]
            target[h] = targets[base + gen.integers(ends[wv[h]] - base)]
            picks += len(h)
        if win_at is not None:  # place the wins among the failed runs
            runs_o, runs_t = np.full((2, len(used)), -1)
            runs_o[win_at[:kept]], runs_t[win_at[:kept]] = origin, target
            origin, target = runs_o, runs_t
        out.append((origin, target, used))
        done += len(used)
        attempts += consumed
        heavy_starts += int(np.count_nonzero(heavy[: cand.searchsorted(consumed)]))
        heavy_hits += int(np.count_nonzero(~light[: hit.searchsorted(consumed)]))
    counts = QueryCounts(attempts, 0 if fallback else attempts + heavy_hits, attempts - heavy_starts + picks)
    return (*(np.concatenate(part) for part in zip(*out)), counts)


def _runs(
    oracle: QueryOracle, theta: int, q: int, runs: int, rng: random.Random, fallback: bool = False
) -> list[np.ndarray]:
    """``runs`` runs of up to q mixture attempts (``fallback_uniform_edge``'s
    with ``fallback``) as [origins, targets, used], origin -1 on a failure:
    pooled in ``_kernel`` where ``bulk_graph`` allows, else one at a time."""
    theta = operator.index(theta)
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    if fallback:
        theta = q = oracle.n
    graph = bulk_graph(oracle)
    if graph is not None:
        *columns, counts = _kernel(graph, theta, q, runs, oracle._generator(rng), fallback)
        oracle.counts = oracle.counts + counts
        return columns
    out = []
    for _ in range(runs):
        if fallback:
            report = fallback_uniform_edge(oracle, rng)
            edge, used = report.outcome, report.attempts_used
        else:
            edge, used = _attempts(oracle, theta, q, rng)
        out.append((*(edge or (-1, -1)), used))
    return [np.array(column, dtype=np.int64) for column in zip(*out)]


def mixture_attempt(oracle: QueryOracle, theta: int, rng: random.Random | None = None) -> DirectedEdge | None:
    """Fair coin between the light and heavy tracks."""
    (origin,), (target,), _ = _runs(oracle, theta, 1, 1, oracle.rng if rng is None else rng)
    return DirectedEdge(int(origin), int(target)) if origin >= 0 else None


def sample_edge_almost_uniformly(
    oracle: QueryOracle, config: SamplerConfig, rng: random.Random | None = None
) -> SampleReport:
    """Run up to q mixture attempts; revert to the fallback when q > n."""
    rng = oracle.rng if rng is None else rng
    if config.q > oracle.n:
        return fallback_uniform_edge(oracle, rng=rng, config=config)
    before = oracle.counts.copy()
    (origin,), (target,), (used,) = _runs(oracle, config.theta, config.q, 1, rng)
    edge = DirectedEdge(int(origin), int(target)) if origin >= 0 else None
    return SampleReport(edge, int(used), oracle.counts - before, config)


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
    in a row. The draws are pooled runs (``_runs``).
    """
    if samples < 1 or max_failures_per_draw < 1:
        raise ValueError("samples and max_failures_per_draw must be >= 1")
    weight_fn = weight if callable(weight) else weight.__getitem__
    rng = oracle.rng if rng is None else rng
    before = oracle.counts.copy()
    weights: list[float] = []
    failures = streak = 0
    while len(weights) < samples:
        # if every run fails, this stops after max_failures_per_draw runs
        chunk = min(samples - len(weights), max(max_failures_per_draw, len(weights)))
        origins, targets, _ = _runs(oracle, config.theta, config.q, chunk, rng, config.q > oracle.n)
        failures += int((origins < 0).sum())
        for origin, target in zip(origins.tolist(), targets.tolist()):
            streak = 0 if origin >= 0 else streak + 1
            if streak == max_failures_per_draw:
                raise RuntimeError(f"a draw failed {max_failures_per_draw} consecutive times")
            if origin >= 0:
                weights.append(float(weight_fn(DirectedEdge(origin, target))))
    mean = math.fsum(weights) / samples
    variance = max(0.0, math.fsum(w * w for w in weights) / samples - mean * mean)
    return WeightedExpectation(
        mean=mean,
        std_error=math.sqrt(variance / samples),
        samples=samples,
        failures=failures,
        queries=oracle.counts - before,
    )
