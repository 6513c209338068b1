"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is
fixed here; exact-arithmetic criteria use rationals end to end. The
exhaustive-enumeration criteria cover every connected labeled graph on up
to 5 vertices plus a fixed catalog at 6..8 (see conftest).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from edgesample import (
    QueryOracle,
    SamplerConfig,
    attempt_distribution,
    build_graph,
    conditional_closeness,
    empirical_distribution,
    enumerate_attempt_distribution,
    estimate_edges,
    partition,
    sample_edge_almost_uniformly,
    vertex_return_distribution,
    weighted_expectation,
)
from edgesample.analytic import (
    enumerate_fallback_distribution,
    enumerate_track_distributions,
    run_failure_probability,
)
from edgesample.experiments import clique_size_for, planted_union, run_lower_bound, run_scaling
from edgesample.generators import generate
from edgesample.sampler import threshold_for

from conftest import EPSILONS

THETAS = range(1, 9)


def _criterion(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_light_edge_uniformity(catalog_graphs):
    checked = 0
    for label, g in catalog_graphs:
        for theta in THETAS:
            part = partition(g, theta)
            per_call = Fraction(1, g.n * theta)
            expected = {
                e: per_call
                for e in g.directed_edges()
                if g.degree(e.origin) <= theta
            }
            got = enumerate_track_distributions(g, theta)[0]
            assert got == expected, f"{label} theta={theta}: light per-edge mismatch"
            assert sum(got.values(), Fraction(0)) == Fraction(part.e_light, g.n * theta), (
                f"{label} theta={theta}: light success mismatch"
            )
            checked += 1
    _criterion(
        1,
        "light track: every light edge exactly 1/(n theta), heavy 0, success e_light/(n theta)",
        True,
        f"{len(catalog_graphs)} graphs x {len(THETAS)} thetas, {checked} exact checks",
    )


def test_criterion_02_heavy_edge_closed_form(catalog_graphs):
    checked = 0
    for label, g in catalog_graphs:
        for theta in THETAS:
            part = partition(g, theta)
            expected: dict = {}
            for v in np.flatnonzero(part.heavy).tolist():
                dl = sum(1 for w in g.neighbors(v) if g.degree(w) <= theta)
                if dl == 0:
                    continue
                p = Fraction(dl, g.n * theta * g.degree(v))
                for w in g.neighbors(v):
                    expected[(v, w)] = p
            got = {tuple(e): p for e, p in enumerate_track_distributions(g, theta)[1].items()}
            assert got == expected, f"{label} theta={theta}: heavy per-edge mismatch"
            success = sum(got.values(), Fraction(0))
            upper = Fraction(part.e_heavy, g.n * theta)
            lower = upper * (1 - Fraction(g.m_dir, theta * theta))
            assert lower <= success <= upper, f"{label} theta={theta}: interval violated"
            # ground-truth anchor: full sample-space walk equals the closed form
            a = attempt_distribution(g, theta)
            b = enumerate_attempt_distribution(g, theta)
            assert a.per_edge == b and a.success_prob == sum(b.values(), Fraction(0))
            checked += 1
    _criterion(
        2,
        "heavy track: per-edge d_L(v)/(n theta d(v)), success inside the interval",
        True,
        f"{checked} exact checks incl. enumeration anchor",
    )


def core_leaves(core: int, leaves: int):
    """A K_core whose vertices each own ``leaves`` pendant leaves."""
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    edges += [(u, core + u * leaves + k) for u in range(core) for k in range(leaves)]
    return build_graph(edges, core + core * leaves)


def test_criterion_03_pointwise_closeness(suite_graphs):
    # The adjacent hubs of the core-plus-leaves graph are heavy at every
    # eps, so their edges carry the heavy-edge factor d_L/d < 1 and the
    # deviation is strictly positive; on the suite graphs it is 0.
    hubs = core_leaves(3, 300)
    assert hubs.n == 903 and hubs.m_dir == 1806
    worst = Fraction(0)
    for label, g in [*suite_graphs, ("core_leaves:3,300", hubs)]:
        for eps in EPSILONS:
            theta = threshold_for(float(g.m_dir), eps)
            rep = conditional_closeness(attempt_distribution(g, theta))
            assert rep.max_ratio_dev <= Fraction(eps), (
                f"{label} eps={eps}: dev {float(rep.max_ratio_dev):.3g}"
            )
            if g is hubs:
                assert rep.max_ratio_dev > 0, f"{label} eps={eps}: heavy-edge factor not exercised"
            if eps == 0.45 and rep.max_ratio_dev > worst:
                worst = rep.max_ratio_dev
    _criterion(
        3,
        "max_ratio_dev <= eps at theta = ceil(sqrt(2m/eps)) for eps in "
        f"{EPSILONS} over {len(suite_graphs) + 1} graphs, > 0 on core_leaves:3,300",
        True,
        f"worst dev at eps=0.45: {float(worst):.4g}",
    )


def test_criterion_04_failure_probability(suite_graphs):
    eps = 0.25
    runs = 1000
    sigma = math.sqrt((1 / 3) * (2 / 3) / runs)
    worst_analytic = 0.0
    worst_observed = 0.0
    for label, g in suite_graphs:
        oracle = QueryOracle(g, seed=9000)
        est = estimate_edges(oracle, "exact")
        cfg = SamplerConfig.for_graph(g.n, est.m_hat, eps)
        analytic = run_failure_probability(g, cfg)
        assert analytic < 1 / 3, f"{label}: analytic failure {analytic:.3g}"
        worst_analytic = max(worst_analytic, analytic)
        failures = 0
        for _ in range(runs):
            if sample_edge_almost_uniformly(oracle, cfg).outcome is None:
                failures += 1
        observed = failures / runs
        assert observed < 1 / 3 + 3 * sigma, f"{label}: observed failure {observed:.3g}"
        worst_observed = max(worst_observed, observed)
    _criterion(
        4,
        "run failure probability < 1/3 analytically and empirically (1000 runs/graph)",
        True,
        f"worst analytic {worst_analytic:.4g}, worst observed {worst_observed:.4g} "
        f"(cap {1/3 + 3*sigma:.4g})",
    )


CHI_SQUARE_CASES = [
    ("star:5", 0, 3),
    ("clique_union:er:30,0.12,6", 2, 4),
]


def test_criterion_05_monte_carlo_vs_analytic():
    details = []
    for spec, seed, theta in CHI_SQUARE_CASES:
        g = generate(spec, seed=seed)
        rep = empirical_distribution(g, trials=10**6, seed=2024, theta=theta)
        assert rep.off_support == 0, f"{spec}: draws landed on zero-probability edges"
        assert rep.p_value >= 0.01, f"{spec}: chi-square p={rep.p_value:.4g}"
        assert rep.max_std_dev < 5, f"{spec}: max |z| = {rep.max_std_dev:.3g}"
        details.append(f"{spec}: p={rep.p_value:.3g}, max|z|={rep.max_std_dev:.2f}")
    _criterion(5, "10^6 draws match the analytic conditional distribution", True, "; ".join(details))


def test_criterion_06_query_cost_scaling():
    specs = [f"er:{n},{16 / n}" for n in (512, 1024, 2048, 4096, 8192)]
    result = run_scaling(specs, epsilon=0.25, trials=200, seed=61, estimator="exact")
    ok = 0.8 <= result.slope <= 1.2
    _criterion(
        6,
        "log-log slope of mean queries vs n/sqrt(eps m) within [0.8, 1.2]",
        ok,
        f"slope={result.slope:.4f} over n=2^9..2^13, 200 trials each",
    )


WEIGHT_GRAPHS = ["star:5", "clique:8", "er:150,0.06"]


def test_criterion_07_weighted_expectation(suite_graphs):
    eps = 0.25
    draws = 10**5
    graphs = {label: g for label, g in suite_graphs}
    details = []
    for label in WEIGHT_GRAPHS:
        g = graphs[label]
        edges = list(g.directed_edges())
        cfg = SamplerConfig.for_graph(g.n, float(g.m_dir), eps)
        for wname, weight in (
            ("origin-degree", lambda e: float(g.degree(e.origin))),
            ("single-edge-indicator", lambda e: 1.0 if e == edges[0] else 0.0),
        ):
            uniform_mean = math.fsum(weight(e) for e in edges) / len(edges)
            oracle = QueryOracle(g, seed=71)
            est = weighted_expectation(oracle, cfg, weight, samples=draws)
            tolerance = eps * abs(uniform_mean) + 4 * est.std_error
            dev = abs(est.mean - uniform_mean)
            assert dev <= tolerance, (
                f"{label}/{wname}: |{est.mean:.6g} - {uniform_mean:.6g}| > {tolerance:.3g}"
            )
            details.append(f"{label}/{wname}: dev={dev:.2e} tol={tolerance:.2e}")
    _criterion(
        7,
        "sampled weight means stay within eps * |uniform mean| + 4 SE (10^5 draws)",
        True,
        "; ".join(details[:3]) + " ...",
    )


def test_criterion_08_degree_proportional_vertices(suite_graphs):
    checked = 0
    for label, g in suite_graphs:
        for eps in EPSILONS:
            theta = threshold_for(float(g.m_dir), eps)
            vd = vertex_return_distribution(attempt_distribution(g, theta))
            for v in range(g.n):
                target = Fraction(g.degree(v), g.m_dir)
                got = vd.get(v, Fraction(0))
                assert abs(got - target) <= Fraction(eps) * target, (
                    f"{label} eps={eps} v={v}: {float(got):.4g} vs {float(target):.4g}"
                )
            checked += 1
    _criterion(
        8,
        "endpoint-split vertex distribution pointwise eps-close to d(v)/m_dir",
        True,
        f"{checked} (graph, eps) pairs, exact arithmetic",
    )


def test_criterion_09_lower_bound_phenomenon():
    base_spec, base_seed, trials = "er:2000,0.01", 91, 2000
    base = generate(base_spec, seed=base_seed)
    k = clique_size_for(base)
    union, _ = planted_union(base, k)
    n, m = union.n, union.m_dir
    t_small = math.ceil(n / (100 * math.sqrt(m)))
    t_large = math.ceil(10 * n / math.sqrt(m))
    runs = run_lower_bound(
        base_spec, budgets=[t_small, t_large], trials=trials, seed=92, base_seed=base_seed
    )
    clique_share = k * (k - 1) / m
    details = [f"n={n} m={m} k={k} |E_K|/m={clique_share:.4f} t={t_small}/{t_large}"]
    for r in (r for r in runs if r.budget == t_small):
        envelope = 4 * r.k * r.budget / r.n
        sigma = math.sqrt(max(r.witness_rate * (1 - r.witness_rate), 1e-12) / trials)
        assert r.witness_rate <= envelope + 3 * sigma, (
            f"{r.strategy}: witness {r.witness_rate:.4f} > {envelope:.4f}+3s"
        )
        assert r.tv_lower_estimate >= 0.3, (
            f"{r.strategy}: tv lower bound {r.tv_lower_estimate:.3f} < 0.3"
        )
        details.append(f"{r.strategy}@t={t_small}: tv>={r.tv_lower_estimate:.3f}")
    sampler_large = next(
        r for r in runs if r.budget == t_large and r.strategy == "truncated-sampler"
    )
    dev = abs(sampler_large.clique_hit_rate - clique_share)
    assert dev <= 0.05, f"sampler hit rate off by {dev:.4f} at t={t_large}"
    details.append(f"sampler@t={t_large}: hit={sampler_large.clique_hit_rate:.4f} (dev {dev:.4f})")
    _criterion(9, "hidden-clique budget phenomenon", True, "; ".join(details))


def test_criterion_10_fallback_exactness(catalog_graphs):
    for label, g in catalog_graphs:
        d = enumerate_fallback_distribution(g)
        per = Fraction(1, g.n * g.n)
        assert set(d.values()) == {per}, f"{label}: fallback probabilities not all 1/n^2"
        assert len(d) == g.m_dir, f"{label}: fallback support incomplete"
    _criterion(
        10,
        "fallback attempt puts exactly 1/n^2 on every directed edge (uniform conditional)",
        True,
        f"{len(catalog_graphs)} graphs, exact",
    )
