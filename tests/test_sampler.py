import copy
import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesample import (
    DirectedEdge,
    QueryOracle,
    SamplerConfig,
    attempt_distribution,
    build_graph,
    estimate_edges_amplified,
    sample_degree_proportional_vertex,
    sample_edge_almost_uniformly,
    weighted_expectation,
)
from edgesample.generators import clique, erdos_renyi, path, star
from edgesample.sampler import attempt_budget, threshold_for

from conftest import no_generator


def test_threshold_formula():
    assert threshold_for(10.0, 0.45) == 7  # ceil(sqrt(44.4...))
    assert threshold_for(8.0, 0.25) == 8  # sqrt(64) exactly
    assert threshold_for(2.0, 0.05) == 9  # ceil(sqrt(80))


def test_threshold_never_undercuts_bound():
    for m_hat in (2.0, 7.5, 10.0, 123.0, 99999.0):
        for eps in (0.05, 0.1, 0.25, 0.45, 0.49999):
            theta = threshold_for(m_hat, eps)
            assert theta * theta * eps >= 2 * m_hat * (1 - 1e-12)


@settings(max_examples=500, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1e12, exclude_min=True, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
)
def test_threshold_is_the_least_theta_meeting_the_bound(m_hat, eps):
    theta = threshold_for(m_hat, eps)
    bound, e = 2 * Fraction(m_hat), Fraction(eps)
    assert theta * theta * e >= bound
    assert theta == 1 or (theta - 1) ** 2 * e < bound


def test_budget_formula():
    # q = ceil(10 n / ((1 - eps) sqrt(eps m_hat)))
    assert attempt_budget(6, 10.0, 0.45) == math.ceil(60 / (0.55 * math.sqrt(4.5)))
    assert attempt_budget(2000, 32000.0, 0.25) == math.ceil(
        20000 / (0.75 * math.sqrt(8000))
    )


def test_config_validation():
    for eps in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError, match="epsilon"):
            SamplerConfig.for_graph(10, 20.0, eps)
    for m_hat in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            SamplerConfig.for_graph(10, m_hat, 0.25)
    for theta, q in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="theta and q"):
            SamplerConfig(theta=theta, q=q)


@pytest.mark.parametrize("field", ["theta", "q"])
def test_config_takes_integers_only(field):
    # a float fails at construction, not later inside a draw; a numpy
    # integer is stored as a Python int, whose bit_length the method loop calls
    def config(value):
        return SamplerConfig(**{"theta": 3, "q": 4, field: value})

    with pytest.raises(TypeError):
        config(2.5)
    for zero in (0, np.int64(0)):
        with pytest.raises(ValueError, match="theta and q"):
            config(zero)
    cfg = config(np.int64(5))
    assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 5
    assert type(getattr(config(True), field)) is int and getattr(config(True), field) == 1
    with pytest.raises(FrozenInstanceError):
        cfg.theta = 7
    report = sample_edge_almost_uniformly(QueryOracle(star(5), seed=1), cfg)
    assert report.config is cfg and report.attempts_used >= 1
    # the slotted results (no instance dict) copy and pickle field for field
    estimate = estimate_edges_amplified(QueryOracle(star(5), seed=1))
    for value in (cfg, report, estimate):
        assert not hasattr(value, "__dict__")
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value and twin is not value


def _mixture_edges(g, theta, seed, trials=20000):
    """``trials`` mixture attempts on ``g``; checks the success rate is
    within 5 SE of the closed form and every returned edge has positive
    closed-form probability. Returns the successes and the distribution."""
    dist = attempt_distribution(g, theta)
    o = no_generator(QueryOracle(g, seed=seed))  # single attempts take the walk, not the numpy kernel
    one_attempt = SamplerConfig(theta, 1)
    edges = [e for e in (sample_edge_almost_uniformly(o, one_attempt).outcome for _ in range(trials)) if e is not None]
    p = float(dist.success_prob)
    assert abs(len(edges) / trials - p) <= 5 * math.sqrt(p * (1 - p) / trials)
    assert all(dist.per_edge[e] > 0 for e in edges)
    assert o.counts.pair == 0
    return edges, dist


def test_light_attempt_on_all_light_graph():
    # every vertex light: only the light track succeeds, e_light/(n theta)
    # = 4/12 on its half of the coin
    g = path(3)
    edges, dist = _mixture_edges(g, 4, seed=2)
    assert dist.success_prob == Fraction(1, 6)
    assert all(g.has_edge(*e) for e in edges)


def test_light_attempt_all_heavy_always_fails():
    # K_4 at theta 2: every vertex heavy, so neither track can succeed
    edges, dist = _mixture_edges(clique(4), 2, seed=3)
    assert dist.success_prob == 0 and not edges


def test_heavy_attempt_returns_heavy_origins():
    # the center is the only heavy vertex, so the heavy track's edges are
    # exactly those leaving it: rate 5/18 on its half of the coin
    trials = 20000
    edges, dist = _mixture_edges(star(5), 3, seed=4, trials=trials)
    heavy = [e for e in edges if e.origin == 0]
    assert heavy, "heavy track should succeed sometimes on a star"
    p = float(sum(pr for e, pr in dist.per_edge.items() if e.origin == 0))
    assert p == 5 / 36
    assert abs(len(heavy) / trials - p) <= 5 * math.sqrt(p * (1 - p) / trials)


def test_per_attempt_query_caps():
    # mixture <= 5 queries, with 1 vertex and at most 2 degree queries
    g = erdos_renyi(40, 0.2, seed=6)
    o = QueryOracle(g, seed=7)
    for _ in range(500):
        before = o.counts.copy()
        sample_edge_almost_uniformly(o, SamplerConfig(4, 1))
        delta = o.counts - before
        assert delta.total <= 5
        assert delta.vertex == 1
        assert delta.degree <= 2
        assert delta.pair == 0


def test_full_run_uses_mixture_path_when_q_fits():
    g = erdos_renyi(300, 0.06, seed=8)
    o = QueryOracle(g, seed=9)
    cfg = SamplerConfig.for_graph(g.n, float(g.m_dir), 0.25)
    assert cfg.q <= g.n
    report = sample_edge_almost_uniformly(o, cfg)
    assert not report.used_fallback
    assert report.outcome is not None
    assert g.has_edge(*report.outcome)
    assert report.queries.total <= 5 * report.attempts_used
    assert report.queries.pair == 0


def test_full_run_reverts_to_fallback_when_q_exceeds_n():
    g = star(5)
    o = QueryOracle(g, seed=10)
    cfg = SamplerConfig.for_graph(g.n, 10.0, 0.25)
    assert cfg.q > g.n
    report = sample_edge_almost_uniformly(o, cfg)
    assert report.used_fallback
    assert report.attempts_used <= g.n


def test_failure_outcome_well_formed():
    # n isolated vertices plus one edge, with a starved attempt budget
    g = build_graph([(0, 1)], 40)
    cfg = SamplerConfig(theta=8, q=1)
    o = QueryOracle(g, seed=11)
    report = sample_edge_almost_uniformly(o, cfg)
    assert report.outcome is None
    assert report.attempts_used == cfg.q
    assert report.queries.total >= 1


def test_run_replays_under_same_seed():
    g = erdos_renyi(100, 0.08, seed=12)
    cfg = SamplerConfig.for_graph(g.n, float(g.m_dir), 0.25)

    def run(seed):
        o = QueryOracle(g, seed=seed)
        r = sample_edge_almost_uniformly(o, cfg)
        return r.outcome, r.attempts_used, r.queries.as_dict()

    assert run(42) == run(42)


def test_fallback_single_edge_distribution():
    g = build_graph([(0, 1)], 2)
    o = QueryOracle(g, seed=13)
    cfg = SamplerConfig(theta=1, q=3)  # q > n = 2: the fallback's 2 attempts
    hits = {DirectedEdge(0, 1): 0, DirectedEdge(1, 0): 0}
    successes = 0
    runs = 4000
    for _ in range(runs):
        r = sample_edge_almost_uniformly(o, cfg)
        assert r.used_fallback and r.attempts_used <= 2
        if r.outcome is not None:
            hits[r.outcome] += 1
            successes += 1
    # per-attempt success 2/4, so a run succeeds with 1 - 1/4; both orientations equally likely
    assert abs(successes / runs - 0.75) < 0.04
    assert abs(hits[DirectedEdge(0, 1)] - hits[DirectedEdge(1, 0)]) < 5 * math.sqrt(successes)


def test_degree_proportional_single_edge_endpoints():
    g = build_graph([(0, 1)], 2)
    o = QueryOracle(g, seed=15)
    cfg = SamplerConfig.for_graph(2, 2.0, 0.25)
    picks = [sample_degree_proportional_vertex(o, cfg)[0] for _ in range(4000)]
    got = [v for v in picks if v is not None]
    assert len(got) > 2500
    assert abs(got.count(0) / len(got) - 0.5) < 0.04


def test_degree_proportional_star_center_share():
    g = star(5)
    o = QueryOracle(g, seed=16)
    cfg = SamplerConfig.for_graph(g.n, 10.0, 0.25)  # q > n: exactly uniform fallback
    picks = [sample_degree_proportional_vertex(o, cfg)[0] for _ in range(6000)]
    got = [v for v in picks if v is not None]
    assert len(got) > 4000
    assert abs(got.count(0) / len(got) - 0.5) < 0.04
    assert abs(got.count(3) / len(got) - 0.1) < 0.03


def test_weighted_expectation_constant_weight_is_exact():
    g = path(3)
    o = QueryOracle(g, seed=17)
    cfg = SamplerConfig.for_graph(g.n, 4.0, 0.25)
    est = weighted_expectation(o, cfg, lambda e: 2.5, samples=200)
    assert est.mean == 2.5
    assert est.samples == 200


def test_weighted_expectation_indicator_on_star():
    g = star(5)
    o = QueryOracle(g, seed=18)
    cfg = SamplerConfig.for_graph(g.n, 10.0, 0.25)  # fallback: exactly uniform
    target = DirectedEdge(1, 0)
    est = weighted_expectation(o, cfg, lambda e: 1.0 if e == target else 0.0, samples=20000)
    assert abs(est.mean - 0.1) < 0.012  # ~5 sigma of binomial(20000, 0.1)


def test_weighted_expectation_mapping_weights():
    g = path(3)
    o = QueryOracle(g, seed=19)
    cfg = SamplerConfig.for_graph(g.n, 4.0, 0.25)
    weights = {e: float(g.degree(e.origin)) for e in g.directed_edges()}
    est = weighted_expectation(o, cfg, weights, samples=20000)
    # uniform mean is (1+2+2+1)/4 = 1.5; fallback path is exactly uniform here
    assert abs(est.mean - 1.5) < 0.03


def test_weighted_expectation_abort_on_hopeless_graph():
    # K_4 at theta 2: every vertex heavy, so every run fails and the abort
    # comes after exactly 100 one-attempt runs, one vertex query each
    cfg = SamplerConfig(theta=2, q=1)
    o = QueryOracle(clique(4), seed=20)
    with pytest.raises(RuntimeError, match="100 consecutive"):
        weighted_expectation(o, cfg, lambda e: 1.0, samples=5)
    assert o.counts.vertex == 100


def test_weighted_expectation_rejects_zero_samples():
    o = QueryOracle(path(3), seed=21)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        weighted_expectation(o, SamplerConfig(2, 4), lambda e: 1.0, samples=0)
    assert o.counts.total == 0


def test_run_on_a_graph_without_vertices_is_rejected():
    o = QueryOracle(build_graph([], 0), seed=21)
    with pytest.raises(ValueError, match="graph has no vertices"):
        sample_edge_almost_uniformly(o, SamplerConfig(1, 1))
    assert o.counts.total == 0


def test_theta_below_one_is_rejected():
    o = QueryOracle(path(3), seed=22)
    for theta in (0, -1):
        with pytest.raises(ValueError, match="theta"):
            sample_edge_almost_uniformly(o, SamplerConfig(theta, 1))
    assert o.counts.total == 0
