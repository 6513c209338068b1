import pytest

from edgesample import QueryOracle, build_graph, estimate_edges_amplified
from edgesample.generators import clique, erdos_renyi, path


def test_exact_estimator_is_free():
    o = QueryOracle(path(3), seed=0)
    est = estimate_edges_amplified(o, "exact")
    assert est.m_hat == 4.0
    assert est.queries_used.total == 0
    assert o.counts.total == 0


def test_degree_sum_on_regular_graph_has_zero_variance():
    # every sampled degree equals d, so the estimate is exactly 1.5 * n * d
    g = clique(6)  # 5-regular
    for seed in range(5):
        o = QueryOracle(g, seed=seed)
        est = estimate_edges_amplified(o, "degree-sum-mc", samples=4)
        assert est.m_hat == 1.5 * 6 * 5
        assert est.queries_used.vertex == 4
        assert est.queries_used.degree == 4


def test_degree_sum_lands_in_contract_interval():
    # Chernoff-scale sample: s=10^5 on er(1000, 0.05) stays in [m, 2m]
    g = erdos_renyi(1000, 0.05, seed=7)
    hits = 0
    for seed in range(100):
        o = QueryOracle(g, seed=seed)
        est = estimate_edges_amplified(o, "degree-sum-mc", samples=10**5)
        if g.m_dir <= est.m_hat <= 2 * g.m_dir:
            hits += 1
    assert hits >= 95


def test_default_sample_count_scales_with_pilot():
    g = erdos_renyi(400, 0.05, seed=3)
    o = QueryOracle(g, seed=5)
    est = estimate_edges_amplified(o, "degree-sum-mc")
    assert est.m_hat > 0
    # pilot pass of ceil(sqrt(n)) plus the main pass, each costing 2 queries per sample
    assert est.queries_used.total >= 2 * 20


def test_amplified_median_of_exact_is_exact():
    o = QueryOracle(path(3), seed=0)
    est = estimate_edges_amplified(o, "exact", repetitions=5)
    assert est.m_hat == 4.0
    assert est.method == "exact-median-5"


def test_median_picks_middle_value():
    values = iter([0.9 * 100, 1.4 * 100, 3 * 100])

    class Fake:
        graph = erdos_renyi(10, 0.5, seed=0)
        counts = QueryOracle(graph, seed=0).counts

    import edgesample.estimate as em

    em.ESTIMATORS["_stub"] = lambda oracle, samples: next(values)
    try:
        o = QueryOracle(Fake.graph, seed=0)
        est = estimate_edges_amplified(o, "_stub", repetitions=3)
        assert est.m_hat == 140.0
    finally:
        del em.ESTIMATORS["_stub"]


def test_repetitions_must_be_odd():
    o = QueryOracle(path(3), seed=0)
    for bad in (0, 2, 4, -1):
        with pytest.raises(ValueError):
            estimate_edges_amplified(o, "exact", repetitions=bad)


def test_sample_count_must_be_positive():
    o = QueryOracle(path(3), seed=0)
    for estimator in ("degree-sum-mc", "exact"):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="sample count"):
                estimate_edges_amplified(o, estimator, samples=bad)
    assert o.counts.total == 0


def test_empty_graph_rejected():
    o = QueryOracle(build_graph([], 5), seed=0)
    with pytest.raises(ValueError):
        estimate_edges_amplified(o, "exact")


def test_unknown_estimator_rejected():
    o = QueryOracle(path(3), seed=0)
    with pytest.raises(ValueError, match="unknown estimator"):
        estimate_edges_amplified(o, "gr08")


def test_median_amplification_boosts_success_probability():
    # single runs land in [m, 2m] with some p > 1/2; the median of r runs
    # should beat 1 - exp(-2 r (p - 1/2)^2), up to Monte Carlo slack
    import math

    g = erdos_renyi(300, 0.05, seed=2)
    trials = 200
    reps = 9

    def good(seed, r):
        o = QueryOracle(g, seed=seed)
        est = estimate_edges_amplified(o, "degree-sum-mc", samples=12, repetitions=r)
        return g.m_dir <= est.m_hat <= 2 * g.m_dir

    single = sum(good(s, 1) for s in range(trials)) / trials
    boosted = sum(good(10_000 + s, reps) for s in range(trials)) / trials
    assert single > 0.5
    assert boosted >= single
    slack = 3 * math.sqrt(0.25 / trials)  # noise in both estimated rates
    hoeffding = 1 - math.exp(-2 * reps * (single - slack - 0.5) ** 2)
    assert boosted >= hoeffding - slack
