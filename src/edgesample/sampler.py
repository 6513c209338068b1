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

Runs (fallback runs too) take one of three paths with one law of outcomes, rows
(origin, target, attempts used; -1, -1 on a failure) and query counts. Where ``_skips``
allows, ``_walk`` skips to the attempts that propose an edge slot and pooled calls
(``_runs``) draw the same proposals in ``_kernel``'s numpy blocks, each reading a proposed
edge's origin off the graph's origin array (``Graph._origins()``); both tally their events
for ``_charge`` to price. Else ``_attempts`` queries the oracle's methods. ``_rows`` hands
single runs their Python rows and charge. All draw from the seeded ``random.Random``, so
runs replay bit-for-bit; one attempt is a run of ``SamplerConfig(theta, 1)``.
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


@dataclass(frozen=True, slots=True)
class SamplerConfig:
    """Resolved parameters of one sampling run: threshold theta and attempt budget q."""

    theta: int
    q: int

    def __post_init__(self):
        # operator.index rejects floats and stores numpy integers and bools as
        # Python ints, whose bit_length the method loop calls
        if type(self.theta) is not int or type(self.q) is not int:
            object.__setattr__(self, "theta", operator.index(self.theta))
            object.__setattr__(self, "q", operator.index(self.q))
        if self.theta < 1 or self.q < 1:
            raise ValueError("theta and q must be >= 1")

    @classmethod
    def for_graph(cls, n: int, m_hat: float, epsilon: float) -> "SamplerConfig":
        check_epsilon(epsilon)
        if not 0.0 < m_hat < math.inf:
            raise ValueError(f"edge estimate must be positive and finite, got {m_hat}")
        return cls(threshold_for(m_hat, epsilon), attempt_budget(n, m_hat, epsilon))


@dataclass(slots=True)
class SampleReport:
    """Outcome of one sampling run; outcome None means Failure."""

    outcome: DirectedEdge | None
    attempts_used: int
    queries: QueryCounts
    config: SamplerConfig
    used_fallback: bool = False


_POOL = 32  # runs a call from which the kernel beats the walk: they cross at 20-30 (near 100 without the coin)


def _skips(graph: Graph | None, theta: int, floor: int = 64) -> bool:
    """Whether the walk (the kernel at ``floor`` 40) may skip empty slots: 2^-floor < m_dir / (n theta) <= 1."""
    return graph is not None and 0 < graph.m_dir <= graph.n * theta < graph.m_dir << floor


def _attempts(
    oracle: QueryOracle, theta: int, limit: int, rng: random.Random, fallback: bool = False
) -> tuple[int, int, int]:
    """Up to ``limit`` mixture attempts through the oracle's methods: the row (origin, target, used), -1, -1 on a failure.

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
            return u, v, attempt
        dv = degree(v)
        if dv <= theta:
            continue
        return v, neighbor(v, rng.randrange(dv) + 1), attempt
    return -1, -1, limit


def _charge(fallback: bool, attempts: int, heavy_starts: int, heavy_hits: int, picks: int) -> QueryCounts:
    """The queries the method loop charges for a tally of its events; no degree query in the fallback."""
    return QueryCounts(attempts, 0 if fallback else attempts + heavy_hits, attempts - heavy_starts + picks)


def _walk(
    graph: Graph, theta: int, q: int, runs: int, rng: random.Random, fallback: bool = False
) -> tuple[list, tuple[int, int, int, int]]:
    """``runs`` runs of up to ``q`` attempts, skipping to the attempts that reach an edge slot: rows
    (origin, target, attempts used) and the tally (attempts, heavy starts, heavy-track hits, picks).

    A slot is proposed with chance p = m_dir / (n theta) per attempt
    (``_skips`` keeps 2^-64 < p <= 1): a geometric gap, then slot r - o[x] of a
    uniform directed edge r out of x = ``graph._f[r]``, the memoryview of the origin array
    ``_kernel`` gathers from. Thinning the proposals past slot theta
    into empty slots leaves each heavy start and occupied slot at its chance
    1/(n theta) per attempt, so outcomes, attempts and charges have the law
    of ``_attempts`` (README, "Performance"), up to ``random()``'s 2^-53 grid.
    """
    graph._origins()  # made once a graph and kept, with its memoryview _f
    o, t, d, f, m, p = graph._o, graph._t, graph._d, graph._f, graph.m_dir, graph.m_dir / (graph.n * theta)
    log_miss = math.log1p(-p) if p < 1 else -math.inf  # log(1 - p); every gap is 1 at p = 1
    random, getrandbits, log, m_bits = rng.random, rng.getrandbits, math.log, m.bit_length()
    rows, attempts, heavy_starts, heavy_hits, picks = [], 0, 0, 0, 0
    for _ in range(runs):
        at = 0
        while (at := at + 1 + int(log(1.0 - random()) / log_miss)) <= q:  # the next attempt that proposes
            r = getrandbits(m_bits)
            while r >= m:
                r = getrandbits(m_bits)
            x = f[r]
            if r - o[x] >= theta or d[x] > theta:  # thinned into an empty slot, or a heavy start
                heavy_starts += r - o[x] < theta
                continue
            v = t[r]
            if fallback or random() < 0.5:
                rows.append((x, v, at))
                break
            heavy_hits += 1
            if (dv := d[v]) > theta:
                picks += 1
                i = getrandbits(k := dv.bit_length())
                while i >= dv:
                    i = getrandbits(k)
                rows.append((v, t[o[v] + i], at))
                break
        else:
            rows.append((-1, -1, at := q))
        attempts += at
    return rows, (attempts, heavy_starts, heavy_hits, picks)


def _kernel(
    graph: Graph, theta: int, q: int, runs: int, gen: np.random.Generator, fallback: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int, int, int]]:
    """``runs`` runs of up to ``q`` attempts from ``_walk``'s proposals, drawn in numpy blocks.

    A block draws gaps 1 + floor(log(1 - U) / log(1 - p)) and edges r = ``gen.integers(m_dir, size)``
    out of x = ``graph._origins()[r]``. The gaps' running sum places the proposals at attempts and
    carries on across blocks and run ends, as gaps are memoryless. Thinning, heavy starts, coin,
    heavy track and pick follow ``_walk``; the wins split into runs at each win and after q attempts
    without one. A block holds two proposals a run left (one without the coin) plus 64, at most
    1 << 16. Positions are exact int64: at p > 2^-40 (``_runs``) a gap is below 2^46, as 1 - U >=
    2^-53, so a block spans under 2^62 attempts; those carried into it are fewer than q, and than
    2^62 unless a run has made 2^62. Returns each run's edge (-1, -1 on a failure) and attempts,
    and ``_walk``'s tally, whose attempts are the sum of that column.
    """
    offsets, targets, deg, origins, m = graph.offsets, graph.targets, graph.deg, graph._origins(), graph.m_dir
    out, p = [], m / (graph.n * theta)
    log_miss = math.log1p(-p) if p < 1 else -math.inf  # every gap is 1 at p = 1
    done = carry = heavy_starts = heavy_hits = picks = 0
    while done < runs:
        left = runs - done
        size = min((1 if fallback else 2) * left + 64, 1 << 16)
        pos = (1 + (np.log(1.0 - gen.random(size)) / log_miss).astype(np.int64)).cumsum() + carry  # from the run's start
        r = gen.integers(m, size=size)
        x = origins[r]
        hit = (deg[x] <= theta).nonzero()[0]  # the light starts; every slot of theirs is occupied
        v = targets[r[hit]]
        light = np.ones(len(hit), bool) if fallback else gen.random(len(hit)) < 0.5
        won = light | (deg[v] > theta)
        w = won.nonzero()[0]  # the wins, by their index among the light starts
        at = hit[w]
        gaps = pos[at]  # the attempts since the previous win, ending with this one
        gaps[1:] -= pos[at[:-1]]
        tail = int(pos[-1] - (pos[at[-1]] if len(at) else 0))
        fails = (gaps - 1) // q  # every q failures in a row are a failed run
        win_at = np.arange(len(at)) + fails.cumsum()
        used = np.full(min(len(at) + int(fails.sum()) + tail // q, left), q)  # none past the call's last run
        kept = int(win_at.searchsorted(len(used)))
        used[win_at[:kept]] = gaps[:kept] - fails[:kept] * q
        carry = tail % q
        k = int(pos.searchsorted(used.sum(), "right")) if len(used) == left else size  # the proposals of the attempts used
        wv, wl = v[w[:kept]], light[w[:kept]]
        origin = np.full(len(used), -1)
        target = origin.copy()
        origin[win_at[:kept]] = np.where(wl, x[at[:kept]], wv)
        h = (~wl).nonzero()[0]  # heavy-track wins return a uniform neighbour of v
        if len(h):
            wv[h] = targets[offsets[wv[h]] + gen.integers(deg[wv[h]])]
            picks += len(h)
        target[win_at[:kept]] = wv
        out.append((origin, target, used))
        done += len(used)
        kh = int(hit.searchsorted(k))  # the light starts among the proposals used
        heavy_starts += int(np.count_nonzero(r[:k] - offsets[x[:k]] < theta)) - kh
        heavy_hits += kh - int(np.count_nonzero(light[:kh]))
    origin, target, used = out[0] if len(out) == 1 else map(np.concatenate, zip(*out))
    return origin, target, used, (int(used.sum()), heavy_starts, heavy_hits, picks)


def _rows(
    oracle: QueryOracle, theta: int, q: int, runs: int, rng: random.Random, fallback: bool = False
) -> tuple[list[tuple[int, int, int]], QueryCounts]:
    """``runs`` runs as rows (origin, target, used; origin -1 on a failure) and the call's charge: ``_walk``'s,
    its tally priced by ``_charge``, where ``_skips`` allows it, else ``_attempts``' by the oracle's methods."""
    graph = bulk_graph(oracle)
    if _skips(graph, theta):
        rows, tally = _walk(graph, theta, q, runs, rng, fallback)
        counts = _charge(fallback, *tally)
        oracle.counts = oracle.counts + counts
        return rows, counts
    before = oracle.counts.copy()
    rows = [_attempts(oracle, theta, q, rng, fallback) for _ in range(runs)]
    return rows, oracle.counts - before


def _runs(
    oracle: QueryOracle, theta: int, q: int, runs: int, rng: random.Random, fallback: bool = False
) -> list[np.ndarray]:
    """``runs`` runs of up to q mixture attempts (fallback ones, theta = n, with ``fallback``) as numpy columns
    [origins, targets, used], origin -1 on a failure: ``_kernel``'s from ``_POOL`` runs on, else ``_rows``'."""
    graph = bulk_graph(oracle)
    if runs >= _POOL and _skips(graph, theta, 40):
        *columns, tally = _kernel(graph, theta, q, runs, oracle._generator(rng), fallback)
        oracle.counts = oracle.counts + _charge(fallback, *tally)
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
    The draws are pooled runs (``_runs``), the kernel's from ``_POOL`` on.
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
