"""Desk-scale experiments: Monte Carlo scoring, query-cost scaling, hidden cliques.

``empirical_distribution`` scores the real sampler's edge frequencies
against the analytic distribution with a chi-square test.

``run_scaling`` measures mean metered queries of full estimate+sample runs
across a family of graphs and fits the log-log slope against
n / sqrt(eps * m); the sampler's cost should scale linearly in that ratio.

``run_lower_bound`` plants a clique holding at least half the directed
edges inside a disjoint union (``generators.planted_union``), relabels all
vertex ids uniformly at random every trial (lazily: a trial draws only the
labels it touches), and runs budget-capped strategies against it. Until a
query touches the hidden clique (a witness, as ``RelabeledView`` defines
it), clique ids are information-theoretically hidden, so any strategy with
a small budget must under-sample clique edges. 1/2 minus the observed
clique hit rate *estimates* the total variational distance from uniform;
it is no certified bound, as the hit rate is conditional on a returned
edge (see ROADMAP item 3).
"""

from __future__ import annotations

import functools
import math
import operator
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytic import attempt_distribution
from .estimate import estimate_edges
from .generators import generate, planted_union
from .graph import DirectedEdge, Graph, RelabeledView
from .oracle import BudgetExceeded, QueryOracle
from .sampler import SamplerConfig, _plan, _runs, sample_edge_almost_uniformly

# ---------------------------------------------------------------------------
# Monte Carlo frequencies vs the analytic distribution
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalReport:
    """Monte Carlo frequencies checked against a reference distribution."""

    trials: int
    counts: dict[DirectedEdge, int]
    chi_square: float
    p_value: float
    max_std_dev: float
    off_support: int
    failures: int


def empirical_distribution(
    g: Graph,
    trials: int,
    seed: int | None = None,
    theta: int | None = None,
    config=None,
    reference: dict[DirectedEdge, Fraction | float] | None = None,
) -> EmpiricalReport:
    """Drive the real sampler ``trials`` times and score the frequencies.

    With ``theta`` given, each trial repeats single mixture attempts until
    one succeeds (the conditional distribution). With ``config`` given,
    each trial is a full budgeted sampling run and failed runs are counted
    separately. The chi-square statistic and the max standardized count
    deviation are computed against ``reference`` (default: the analytic
    conditional distribution for the mode in use). The trials are pooled
    runs (``sampler._runs``). Raises ValueError before drawing when the
    mixture attempt of either mode can never succeed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if (theta is None) == (config is None):
        raise ValueError("give exactly one of theta or config")
    # a theta-mode run never gives up; attempt_distribution rejects a theta below 1
    theta, q, fallback = (operator.index(theta), sys.maxsize, False) if config is None else _plan(config, g.n)
    if not fallback:
        dist = attempt_distribution(g, theta)
        if dist.success_prob == 0:  # theta mode would never end, config mode only fail
            raise ValueError(f"no attempt can succeed at theta={dist.theta}")
        if reference is None:
            reference = dist.conditional()
    elif reference is None:
        reference = {e: Fraction(1, g.m_dir) for e in g.directed_edges()}

    oracle = QueryOracle(g, seed=seed)
    origins, targets, _ = _runs(oracle, theta, q, trials, oracle.rng, fallback)
    won = origins >= 0
    keys, hits = np.unique(origins[won] * g.n + targets[won], return_counts=True)
    counts = {DirectedEdge(*divmod(k, g.n)): c for k, c in zip(keys.tolist(), hits.tolist())}
    returned = int(won.sum())
    support = [(e, float(p)) for e, p in reference.items() if p > 0]
    off_support = sum(c for e, c in counts.items() if float(reference.get(e, 0)) == 0.0)
    f_obs = [counts.get(e, 0) for e, _ in support]
    f_exp = [returned * p for _, p in support]
    if returned > 0 and off_support == 0:
        from scipy.special import chdtrc  # imported here: scipy takes longer to import than the package

        chi2 = math.fsum((o - ex) ** 2 / ex for o, ex in zip(f_obs, f_exp))
        p_value = chdtrc(len(support) - 1, chi2)
        max_std = max(
            abs(o - ex) / math.sqrt(ex * (1.0 - ex / returned)) if 0 < ex < returned else 0.0
            for o, ex in zip(f_obs, f_exp)
        )
    else:
        chi2, p_value, max_std = math.inf, 0.0, math.inf
    return EmpiricalReport(
        trials=trials,
        counts=counts,
        chi_square=float(chi2),
        p_value=float(p_value),
        max_std_dev=float(max_std),
        off_support=off_support,
        failures=trials - returned,
    )


# ---------------------------------------------------------------------------
# Query-cost scaling
# ---------------------------------------------------------------------------


@dataclass
class ScalingRun:
    """Aggregated query cost of repeated full runs on one graph."""

    spec: str
    n: int
    m_dir: int
    epsilon: float
    trials: int
    mean_queries: float
    stddev_queries: float
    failure_rate: float

    @property
    def cost_scale(self) -> float:
        """The predicted cost driver n / sqrt(epsilon * m_dir)."""
        return self.n / math.sqrt(self.epsilon * self.m_dir)


@dataclass
class ScalingResult:
    runs: list[ScalingRun]
    slope: float
    intercept: float


def run_scaling(
    specs: list[str],
    epsilon: float,
    trials: int,
    seed: int,
    estimator: str = "exact",
    samples: int | None = None,
) -> ScalingResult:
    """Measure mean queries per run on each spec and fit the log-log slope."""
    if trials < 30:
        raise ValueError(f"need at least 30 trials for stable means, got {trials}")
    master = random.Random(seed)
    runs = []
    for spec in specs:
        g = generate(spec, seed=master.getrandbits(32))
        totals = np.empty(trials)
        failures = 0
        for t in range(trials):
            oracle = QueryOracle(g, seed=master.getrandbits(63))
            est = estimate_edges(oracle, estimator, samples)
            cfg = SamplerConfig.for_graph(g.n, est.m_hat, epsilon)
            report = sample_edge_almost_uniformly(oracle, cfg)
            if report.outcome is None:
                failures += 1
            totals[t] = oracle.counts.total
        runs.append(
            ScalingRun(
                spec=spec,
                n=g.n,
                m_dir=g.m_dir,
                epsilon=epsilon,
                trials=trials,
                mean_queries=float(totals.mean()),
                stddev_queries=float(totals.std()),
                failure_rate=failures / trials,
            )
        )
    xs = np.log([r.cost_scale for r in runs])
    ys = np.log([r.mean_queries for r in runs])
    if len(runs) >= 2:
        slope, intercept = np.polyfit(xs, ys, 1)
    else:
        slope, intercept = math.nan, math.nan
    return ScalingResult(runs=runs, slope=float(slope), intercept=float(intercept))


# ---------------------------------------------------------------------------
# Hidden-clique budget experiment
# ---------------------------------------------------------------------------


def clique_size_for(base: Graph) -> int:
    """Smallest clique size whose directed edge count k(k-1) reaches the
    base graph's m_dir, so the clique holds at least half the union's edges."""
    k = max(2, math.ceil(math.sqrt(base.m_dir)))
    while k * (k - 1) < base.m_dir:
        k += 1
    return k


class TruncatedSamplerStrategy:
    """The mixture sampler itself, cut off by the hard query meter.

    Receives the true edge count (the budget phenomenon persists even for
    strategies that know m and n exactly).
    """

    name = "truncated-sampler"
    _config = staticmethod(functools.lru_cache(maxsize=16)(SamplerConfig.for_graph))  # per (n, m, eps), not trial

    def __init__(self, epsilon: float = 0.25):
        self.epsilon = epsilon

    def run(self, oracle: QueryOracle, budget: int, rng: random.Random):
        cfg = self._config(oracle.n, float(oracle.graph.m_dir), self.epsilon)
        report = sample_edge_almost_uniformly(oracle, cfg, rng)
        return None if report.outcome is None else tuple(report.outcome)


class GreedyPairStrategy:
    """Hunt for high-degree vertices, then confirm an edge among them.

    Spends up to two thirds of the budget on (vertex, degree) probes, then
    pair-queries sampled vertices in descending degree order and returns
    the first confirmed pair. Finds planted-clique edges quickly once two
    clique vertices have been probed (each probe is a witness).
    """

    name = "greedy-pairs"

    def run(self, oracle: QueryOracle, budget: int, rng: random.Random):
        probe_budget = (2 * budget) // 3
        seen: dict[int, int] = {}
        used = oracle.counts.total  # each query below bumps one counter by one
        while used + 2 <= probe_budget:
            v = oracle.random_vertex()
            seen[v] = oracle.degree(v)
            used += 2
        ranked = sorted(seen, key=seen.get, reverse=True)
        for i in range(len(ranked)):
            for j in range(i + 1, len(ranked)):
                if used >= budget:
                    return None
                used += 1
                if oracle.pair(ranked[i], ranked[j]):
                    return (ranked[i], ranked[j])
        return None


class BlindGuessStrategy:
    """No queries at all: return a uniformly random ordered vertex pair."""

    name = "blind-guess"

    def run(self, oracle: QueryOracle, budget: int, rng: random.Random):
        u = rng.randrange(oracle.n)
        v = rng.randrange(oracle.n - 1)
        if v >= u:
            v += 1
        return (u, v)


DEFAULT_STRATEGIES = (TruncatedSamplerStrategy(), GreedyPairStrategy(), BlindGuessStrategy())


def default_budgets(n: int, m_dir: int) -> list[int]:
    """Geometric sweep bracketing the n / sqrt(m) transition."""
    base = n / math.sqrt(m_dir)
    return [max(1, math.ceil(base * f)) for f in (0.01, 0.1, 1.0, 10.0)]


@dataclass
class LowerBoundRun:
    """One (strategy, budget) cell of the hidden-clique experiment."""

    base_spec: str
    n: int
    m_dir: int
    k: int
    e_k_dir: int
    budget: int
    strategy: str
    trials: int
    clique_hit_rate: float
    witness_rate: float
    return_rate: float
    tv_lower_estimate: float


def run_lower_bound(
    base_spec: str,
    strategies=DEFAULT_STRATEGIES,
    budgets: list[int] | None = None,
    trials: int = 1000,
    seed: int = 0,
    base_seed: int = 0,
) -> list[LowerBoundRun]:
    """Run each strategy at each budget against per-trial relabelings.

    The planted union is built once; each trial wraps it in a fresh, lazily
    drawn, uniformly random relabeling (equivalent in distribution to
    rebuilding the labeled graph), so strategies can never learn clique ids
    across trials. Membership, for witnesses and hits, reads revealed old ids:
    the view marks the clique's and flags the witness (``RelabeledView``).
    Each (strategy, budget) cell draws two generators from ``seed``: one for
    its relabelings and one that its trials' oracles draw from in turn.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if budgets is not None and any(b < 0 for b in budgets):
        raise ValueError(f"budgets must be >= 0, got {budgets}")
    base = generate(base_spec, seed=base_seed)
    k = clique_size_for(base)
    union, _ = planted_union(base, k)
    clique = range(base.n, union.n)  # old ids: planted_union puts the clique last
    if budgets is None:
        budgets = default_budgets(union.n, union.m_dir)
    master = random.Random(seed)
    results = []
    for strategy in strategies:
        for budget in budgets:
            relabel_rng, oracle_rng = random.Random(master.getrandbits(63)), random.Random(master.getrandbits(63))
            returns = hits = witnesses = 0
            for _ in range(trials):
                view = RelabeledView(union, relabel_rng)
                view.marked = clique
                oracle = QueryOracle(view, seed=oracle_rng, budget=budget)
                try:
                    answer = strategy.run(oracle, budget, oracle.rng)
                except BudgetExceeded:
                    answer = None
                witnesses += view.witnessed
                if answer is not None:
                    returns += 1
                    u, v = answer
                    if u != v and view.old(u) in clique and view.old(v) in clique:
                        hits += 1
            hit_rate = hits / returns if returns else 0.0
            results.append(
                LowerBoundRun(
                    base_spec=base_spec,
                    n=union.n,
                    m_dir=union.m_dir,
                    k=k,
                    e_k_dir=k * (k - 1),
                    budget=budget,
                    strategy=strategy.name,
                    trials=trials,
                    clique_hit_rate=hit_rate,
                    witness_rate=witnesses / trials,
                    return_rate=returns / trials,
                    tv_lower_estimate=max(0.0, 0.5 - hit_rate),
                )
            )
    return results
