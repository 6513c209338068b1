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
n it reverts to n fallback attempts: a uniform vertex and a uniform slot
in [n], no coin, no degree query. Each returns any directed edge with
probability 1/n^2, so the fallback is exactly uniform, if slower per success.

Runs (fallback runs too) take one of three paths with one law of outcomes
and query counts: over an ``oracle.bulk_graph``, ``_kernel``'s numpy blocks
for pooled calls (``_runs``) and ``_walk`` for the rest, else ``_attempts``
through the oracle's methods; ``_rows`` hands single runs the last two's
Python rows and charge. All draw from the seeded ``random.Random`` only, so
runs replay bit-for-bit; one attempt is a run of ``SamplerConfig(theta, 1)``.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_right
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
    (a, b), (c, d) = m_hat.as_integer_ratio(), epsilon.as_integer_ratio()
    bound = -(-2 * a * d // (b * c))  # ceil(2 m_hat / epsilon)
    return math.isqrt(max(bound, 1) - 1) + 1


def attempt_budget(n: int, m_hat: float, epsilon: float) -> int:
    """ceil(10 n / ((1 - epsilon) sqrt(epsilon m_hat)))."""
    return max(1, math.ceil(10.0 * n / ((1.0 - epsilon) * math.sqrt(epsilon * m_hat))))


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless epsilon lies strictly inside (0, 0.5)."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie strictly inside (0, 0.5), got {epsilon}")


@dataclass(frozen=True)
class SamplerConfig:
    """Resolved parameters of one sampling run: threshold theta and attempt budget q."""

    theta: int
    q: int

    def __post_init__(self):
        # operator.index rejects floats and stores numpy integers as Python
        # ints, whose bit_length the method loop calls
        theta, q = operator.index(self.theta), operator.index(self.q)
        if theta < 1 or q < 1:
            raise ValueError("theta and q must be >= 1")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "q", q)

    @classmethod
    def for_graph(cls, n: int, m_hat: float, epsilon: float) -> "SamplerConfig":
        check_epsilon(epsilon)
        if not 0.0 < m_hat < math.inf:
            raise ValueError(f"edge estimate must be positive and finite, got {m_hat}")
        return cls(threshold_for(m_hat, epsilon), attempt_budget(n, m_hat, epsilon))


@dataclass
class SampleReport:
    """Outcome of one sampling run; outcome None means Failure."""

    outcome: DirectedEdge | None
    attempts_used: int
    queries: QueryCounts
    config: SamplerConfig
    used_fallback: bool = False


_WALK = 150  # kernel attempts (20-30 ns each) that cost what one walked run costs (3-5 us)
_BLOCK = 2500  # kernel attempts that cost what a block's fixed numpy work costs (60-90 us)


def _attempts(
    oracle: QueryOracle, theta: int, limit: int, rng: random.Random, fallback: bool = False
) -> tuple[DirectedEdge | None, int]:
    """Up to ``limit`` mixture attempts through the oracle's methods: (edge, used).

    A fair coin picks a track; both start from a uniform vertex u, which
    fails if heavy (d(u) > theta), and a uniform slot j in [theta] of u,
    which fails if empty. The light track returns (u, v) for the slot's
    occupant v; the heavy track fails unless v is heavy, and returns (v, w)
    for a uniform neighbor w of v. The slot, ``1 + r`` with ``r`` drawn by
    ``getrandbits(k)`` rejection below theta, is ``rng.randint(1, theta)``.
    With ``fallback`` an attempt is the fallback's (see the module
    docstring): theta = n is given, and there is no coin and no degree query.
    """
    k = theta.bit_length()
    coin, degree = (lambda: 0.0, lambda u: 0) if fallback else (rng.random, oracle.degree)
    getrandbits, random_vertex, neighbor = rng.getrandbits, oracle.random_vertex, oracle.neighbor
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
        return DirectedEdge(v, neighbor(v, rng.randrange(dv) + 1)), attempt
    return None, limit


def _walk(
    graph: Graph, theta: int, q: int, runs: int, rng: random.Random, fallback: bool = False
) -> tuple[list, QueryCounts]:
    """``runs`` runs of up to ``q`` attempts, skipping to the attempts that
    reach an edge slot: (rows of origin, target, attempts used; the queries).

    A slot is proposed with chance p = m_dir / (n theta) per attempt
    (``_rows`` keeps 2^-64 < p <= 1): a geometric gap, then slot r - o[x] of a
    uniform directed edge r out of x. Thinning the proposals past slot theta
    into empty slots leaves each heavy start and occupied slot at its chance
    1/(n theta) per attempt, so outcomes, attempts and charges have the law
    of ``_attempts`` (README, "Performance"), up to ``random()``'s 2^-53 grid.
    """
    o, t, m, p = graph._o, graph._t, graph.m_dir, graph.m_dir / (graph.n * theta)
    log_miss = math.log1p(-p) if p < 1 else -math.inf  # log(1 - p); every gap is 1 at p = 1
    random, randrange, log = rng.random, rng.randrange, math.log
    rows, heavy_starts, heavy_hits, picks = [], 0, 0, 0
    for _ in range(runs):
        at = 0
        while (at := at + 1 + int(log(1.0 - random()) / log_miss)) <= q:  # the next attempt that proposes
            r = randrange(m)
            x = bisect_right(o, r) - 1
            if r - o[x] >= theta or o[x + 1] - o[x] > theta:  # thinned into an empty slot, or a heavy start
                heavy_starts += r - o[x] < theta
                continue
            v = t[r]
            if fallback or random() < 0.5:
                rows.append((x, v, at))
                break
            heavy_hits += 1
            if o[v + 1] - o[v] > theta:
                picks += 1
                rows.append((v, t[o[v] + randrange(o[v + 1] - o[v])], at))
                break
        else:
            rows.append((-1, -1, q))
    attempts = sum(row[2] for row in rows)
    return rows, QueryCounts(attempts, 0 if fallback else attempts + heavy_hits, attempts - heavy_starts + picks)


def _per_run(graph: Graph, theta: int, q: int, fallback: bool) -> int:
    """Fewest attempts a run can expect, at most q: 2 n theta / m_dir, or n theta / m_dir without the coin."""
    return min(q, -(-(1 if fallback else 2) * graph.n * theta // graph.m_dir)) if graph.m_dir else q


def _kernel(
    graph: Graph, theta: int, q: int, runs: int, gen: np.random.Generator, fallback: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, QueryCounts]:
    """``runs`` runs of up to ``q`` attempts: one stream of i.i.d. attempts
    split at each win and after q failures in a row.

    A block holds ``runs`` times ``_per_run`` attempts, at least ``_BLOCK``
    (its fixed cost, so few runs left rarely need another) and at most
    1 << 16. One draw ``w = gen.integers(n * theta, size)`` splits by
    ``divmod(w, theta)`` into vertices u and slots j, a bijection of [n
    theta] onto [n] x [theta] (``_runs`` keeps n theta <= 2^63); one coin
    array and one pick array serve the whole block. With ``fallback`` an
    attempt is the fallback's: theta = n, no coin, no degree query. Returns
    each run's edge (-1, -1 on a failure) and attempts, and the queries the
    method loop would charge.
    """
    offsets, targets, n, ends = graph.offsets, graph.targets, graph.n, graph.offsets[1:]
    out, per_run = [], _per_run(graph, theta, q, fallback)
    done = carry = attempts = heavy_starts = heavy_hits = picks = 0
    while done < runs:
        left = runs - done
        size = min(1 << 16, max(left * per_run, _BLOCK), left * q - carry)  # 1 << 16 bounds the memory
        u, j = np.divmod(gen.integers(n * theta, size=size), theta)
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
    return (*(out[0] if len(out) == 1 else map(np.concatenate, zip(*out))), counts)


def _rows(
    oracle: QueryOracle, theta: int, q: int, runs: int, rng: random.Random, fallback: bool = False
) -> tuple[list[tuple[int, int, int]], QueryCounts]:
    """``runs`` runs as Python rows (origin, target, used; origin -1 on a failure) and the call's charge:
    ``_walk``'s over a ``bulk_graph`` with 2^-64 < p = m_dir / (n theta) <= 1, else ``_attempts``' by the methods."""
    graph = bulk_graph(oracle)
    if graph is not None and 0 < graph.m_dir <= graph.n * theta < graph.m_dir << 64:
        rows, counts = _walk(graph, theta, q, runs, rng, fallback)
        oracle.counts = oracle.counts + counts
        return rows, counts
    before = oracle.counts.copy()
    rows = [(*(e or (-1, -1)), k) for e, k in (_attempts(oracle, theta, q, rng, fallback) for _ in range(runs))]
    return rows, oracle.counts - before


def _runs(
    oracle: QueryOracle, theta: int, q: int, runs: int, rng: random.Random, fallback: bool = False
) -> list[np.ndarray]:
    """``runs`` runs of up to q mixture attempts (fallback ones, theta = n, with ``fallback``) as numpy
    columns [origins, targets, used] for the pooled callers, origin -1 on a failure. Over a ``bulk_graph``,
    ``_kernel`` pools them if a block (``_BLOCK``) and its attempts cost less than walking them (``_WALK``
    a run, in kernel attempts); ``_rows`` makes the rest."""
    graph = bulk_graph(oracle)
    if graph is not None and graph.n * theta <= 1 << 63 and runs * (_WALK - _per_run(graph, theta, q, fallback)) > _BLOCK:
        *columns, counts = _kernel(graph, theta, q, runs, oracle._generator(rng), fallback)
        oracle.counts = oracle.counts + counts
        return columns
    return [np.array(column, np.int64) for column in zip(*_rows(oracle, theta, q, runs, rng, fallback)[0])]


def _plan(config: SamplerConfig, n: int) -> tuple[int, int, bool]:
    """A run's (theta, attempts, fallback): q mixture attempts at theta, or n fallback ones at theta = n if q > n."""
    return (n, n, True) if config.q > n else (config.theta, config.q, False)


def sample_edge_almost_uniformly(
    oracle: QueryOracle, config: SamplerConfig, rng: random.Random | None = None
) -> SampleReport:
    """One run of ``_rows`` (one run never pools): up to q mixture attempts, or the fallback's n when q > n."""
    if oracle.n < 1:
        raise ValueError("graph has no vertices")
    theta, q, fallback = _plan(config, oracle.n)
    ((origin, target, used),), queries = _rows(oracle, theta, q, 1, oracle.rng if rng is None else rng, fallback)
    return SampleReport(DirectedEdge(origin, target) if origin >= 0 else None, used, queries, config, fallback)


def sample_degree_proportional_vertex(
    oracle: QueryOracle, config: SamplerConfig
) -> tuple[int | None, SampleReport]:
    """Sample a vertex with probability close to d(v) / m_dir: either endpoint, with probability
    1/2, of an almost-uniform edge (v is the origin of d(v) directed edges and the target of d(v))."""
    report = sample_edge_almost_uniformly(oracle, config)
    if report.outcome is None:
        return None, report
    return (report.outcome.origin if oracle.rng.random() < 0.5 else report.outcome.target), report


MAX_FAILURES = 100  # failed runs in a row after which weighted_expectation gives up


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
) -> WeightedExpectation:
    """Average an edge weight over ``samples`` successful draws.

    The sampling distribution is pointwise eps-close to uniform, so the
    limit of the mean is within eps * |uniform mean| of the uniform mean.
    Raises RuntimeError if one draw fails ``MAX_FAILURES`` times in a row.
    The draws are pooled runs (``_runs``).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    weight_fn = weight if callable(weight) else weight.__getitem__
    before = oracle.counts.copy()
    theta, q, fallback = _plan(config, oracle.n)
    weights: list[float] = []
    failures = streak = 0
    while len(weights) < samples:
        # if every run fails, this stops after MAX_FAILURES runs
        chunk = min(samples - len(weights), max(MAX_FAILURES, len(weights)))
        origins, targets, _ = _runs(oracle, theta, q, chunk, oracle.rng, fallback)
        failures += int((origins < 0).sum())
        for origin, target in zip(origins.tolist(), targets.tolist()):
            streak = 0 if origin >= 0 else streak + 1
            if streak == MAX_FAILURES:
                raise RuntimeError(f"a draw failed {MAX_FAILURES} consecutive times")
            if origin >= 0:
                weights.append(float(weight_fn(DirectedEdge(origin, target))))
    mean = math.fsum(weights) / samples
    variance = max(0.0, math.fsum(w * w for w in weights) / samples - mean * mean)
    return WeightedExpectation(mean, math.sqrt(variance / samples), samples, failures, oracle.counts - before)
