import random
from fractions import Fraction

import pytest

from edgesample import (
    DirectedEdge,
    SamplerConfig,
    attempt_distribution,
    build_graph,
    conditional_closeness,
    empirical_distribution,
    enumerate_attempt_distribution,
    verify_attempt_bounds,
    vertex_return_distribution,
)
from edgesample import analytic
from edgesample.analytic import enumerate_track_distributions, run_failure_probability
from edgesample.generators import clique, erdos_renyi, generate, path, star

DOUBLE_STAR = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]


def test_star_attempt_distribution_frozen():
    d = attempt_distribution(star(5), 3)
    assert set(d.per_edge.values()) == {Fraction(1, 36)}
    assert len(d.per_edge) == 10
    assert d.success_prob == Fraction(10, 36)


def test_p3_attempt_distribution_frozen():
    d = attempt_distribution(path(3), 4)
    assert set(d.per_edge.values()) == {Fraction(1, 24)}
    assert d.success_prob == Fraction(1, 6)


def test_k4_attempt_distribution_is_dead():
    # no light vertices to route through: light and heavy branches both fail
    d = attempt_distribution(clique(4), 2)
    assert d.success_prob == 0
    assert set(d.per_edge.values()) == {Fraction(0)}
    with pytest.raises(ValueError):
        conditional_closeness(d)


def test_enumeration_matches_closed_form_spot():
    for g in (star(5), path(6), clique(5), build_graph(DOUBLE_STAR, 8)):
        for theta in (1, 2, 3, 5, 8):
            a = attempt_distribution(g, theta)
            b = enumerate_attempt_distribution(g, theta)
            assert a.per_edge == b
            assert a.success_prob == sum(b.values(), Fraction(0))


def test_light_track_enumeration_values():
    g = path(3)
    d = enumerate_track_distributions(g, 4)[0]
    assert set(d.values()) == {Fraction(1, 12)}
    assert sum(d.values()) == Fraction(1, 3)


def test_heavy_track_enumeration_values():
    d = enumerate_track_distributions(star(5), 3)[1]
    # each center->leaf edge: d_L(c)/(n theta d(c)) = 5/(6*3*5) = 1/18
    assert d == {DirectedEdge(0, leaf): Fraction(1, 18) for leaf in range(1, 6)}


def test_closeness_zero_when_no_heavy():
    for g in (path(7), star(4)):
        theta = max(g.degrees())
        rep = conditional_closeness(attempt_distribution(g, theta))
        assert rep.max_ratio_dev == 0
        assert rep.tv_distance == 0
        assert rep.pointwise_ok(0.05)


def test_double_star_skew_frozen():
    # two adjacent heavy centers: heavy edges carry 3/4 of a light edge's mass
    g = build_graph(DOUBLE_STAR, 8)
    d = attempt_distribution(g, 3)
    assert d.success_prob == Fraction(1, 4)
    rep = conditional_closeness(d)
    assert rep.max_ratio_dev == Fraction(1, 6)
    assert rep.tv_distance == Fraction(1, 14)
    assert not rep.pointwise_ok(0.1)
    assert rep.pointwise_ok(0.25)


def test_tv_never_exceeds_max_ratio_dev():
    rng = random.Random(0)
    for _ in range(25):
        g = erdos_renyi(rng.randrange(5, 30), rng.uniform(0.1, 0.5), seed=rng.randrange(10**6))
        if g.m_dir == 0:
            continue
        theta = rng.randrange(1, 10)
        d = attempt_distribution(g, theta)
        if d.success_prob == 0:
            continue
        rep = conditional_closeness(d)
        assert rep.tv_distance <= rep.max_ratio_dev


def test_dev_vanishes_at_and_past_max_degree():
    g = erdos_renyi(30, 0.2, seed=5)
    top = max(g.degrees())
    for theta in (top, top + 1, top + 5, g.n - 1):
        rep = conditional_closeness(attempt_distribution(g, theta))
        assert rep.max_ratio_dev == 0


def test_bound_margins_p3():
    rep = verify_attempt_bounds(path(3), 4, 0.5)
    by_name = {c.name: c for c in rep.checks}
    mix = by_name["mixture_success_lower_bound"]
    assert mix.applicable and mix.passed
    assert mix.margin == Fraction(1, 6) - Fraction(1, 12)
    light = by_name["light_success_equals_e_light_over_n_theta"]
    assert light.passed and light.margin == 0
    assert rep.all_passed


def test_bound_not_applicable_marking():
    # star(5) at theta=3 sits below sqrt(2m/eps): the mixture bound is not claimed
    rep = verify_attempt_bounds(star(5), 3, 0.25)
    by_name = {c.name: c for c in rep.checks}
    assert not by_name["mixture_success_lower_bound"].applicable
    assert by_name["mixture_success_lower_bound"].passed  # not failed
    assert by_name["heavy_light_degree_dominates"].applicable


def test_light_success_at_theta_n_minus_1():
    for g in (path(5), star(6), clique(4)):
        rep = verify_attempt_bounds(g, g.n - 1, 0.45)
        light = {c.name: c for c in rep.checks}["light_success_equals_e_light_over_n_theta"]
        assert light.passed
        d = attempt_distribution(g, g.n - 1)
        assert 2 * d.success_prob == Fraction(g.m_dir, g.n * (g.n - 1))


def test_eq1_margins_on_heavy_graphs():
    g = build_graph(DOUBLE_STAR, 8)
    for theta in (2, 3):
        rep = verify_attempt_bounds(g, theta, 0.45)
        eq1 = {c.name: c for c in rep.checks}["heavy_light_degree_dominates"]
        assert eq1.applicable and eq1.passed and eq1.margin > 0


def test_fallback_enumeration_uniform():
    # the fallback attempt is the light track at theta = n, where every vertex is light
    for g in (path(4), star(5), clique(4)):
        light, heavy = enumerate_track_distributions(g, g.n)
        assert light == {e: Fraction(1, g.n * g.n) for e in g.directed_edges()}
        assert heavy == {}
        assert light == {e: 2 * p for e, p in attempt_distribution(g, g.n).per_edge.items()}


def test_run_failure_probability_paths():
    g = star(5)
    cfg = SamplerConfig.for_graph(g.n, 10.0, 0.25)
    assert cfg.q > g.n  # fallback
    assert run_failure_probability(g, cfg) == pytest.approx((1 - 10 / 36) ** 6)
    g2 = erdos_renyi(300, 0.06, seed=1)
    cfg2 = SamplerConfig.for_graph(g2.n, float(g2.m_dir), 0.25)
    assert cfg2.q <= g2.n
    s = float(attempt_distribution(g2, cfg2.theta).success_prob)
    assert run_failure_probability(g2, cfg2) == pytest.approx((1 - s) ** cfg2.q)


def test_all_bounds_hold_at_criterion_theta():
    from edgesample.sampler import threshold_for

    rng = random.Random(11)
    for _ in range(10):
        g = erdos_renyi(rng.randrange(10, 60), rng.uniform(0.1, 0.4), seed=rng.randrange(10**6))
        if g.m_dir < 2:
            continue
        for eps in (0.1, 0.45):
            theta = threshold_for(float(g.m_dir), eps)
            rep = verify_attempt_bounds(g, theta, eps)
            assert rep.all_passed
            mix = {c.name: c for c in rep.checks}["mixture_success_lower_bound"]
            assert mix.applicable  # theta was chosen to satisfy the hypothesis


def test_vertex_return_distribution_star():
    d = attempt_distribution(star(5), 5)  # all light: exactly uniform edges
    vd = vertex_return_distribution(d)
    assert vd[0] == Fraction(1, 2)
    assert all(vd[leaf] == Fraction(1, 10) for leaf in range(1, 6))


def test_empirical_matches_analytic_on_star():
    rep = empirical_distribution(star(5), trials=20000, seed=3, theta=3)
    assert rep.off_support == 0
    assert rep.p_value >= 0.01
    assert rep.max_std_dev < 5


def test_empirical_is_deterministic_under_seed():
    a = empirical_distribution(star(5), trials=2000, seed=9, theta=3)
    b = empirical_distribution(star(5), trials=2000, seed=9, theta=3)
    assert a.counts == b.counts
    assert a.chi_square == b.chi_square


def test_empirical_full_run_mode():
    g = erdos_renyi(200, 0.06, seed=4)
    cfg = SamplerConfig.for_graph(g.n, float(g.m_dir), 0.25)
    rep = empirical_distribution(g, trials=300, seed=5, config=cfg)
    assert rep.failures <= 300
    assert sum(rep.counts.values()) == 300 - rep.failures


def test_empirical_fallback_mode_is_uniform():
    g = path(30)
    cfg = SamplerConfig.for_graph(g.n, float(g.m_dir), 0.25)
    assert cfg.q > g.n  # every trial is a fallback run
    uniform = {e: Fraction(1, g.m_dir) for e in g.directed_edges()}
    assert attempt_distribution(g, g.n).conditional() == uniform  # the default reference
    rep = empirical_distribution(g, trials=4000, seed=8, config=cfg)
    assert rep.off_support == 0
    assert rep.p_value >= 0.01
    assert rep == empirical_distribution(g, trials=4000, seed=8, config=cfg, reference=uniform)


def test_chi_square_rejects_wrong_reference():
    # sampler draws from the skewed double-star conditional; testing those
    # frequencies against a uniform reference must fail decisively
    g = build_graph(DOUBLE_STAR, 8)
    uniform = {e: Fraction(1, g.m_dir) for e in g.directed_edges()}
    rep = empirical_distribution(g, trials=20000, seed=6, theta=3, reference=uniform)
    assert rep.p_value < 0.01


def test_empirical_rejects_bad_arguments():
    with pytest.raises(ValueError):
        empirical_distribution(star(5), trials=0, seed=0, theta=3)
    with pytest.raises(ValueError):
        empirical_distribution(star(5), trials=10, seed=0)  # neither theta nor config
    with pytest.raises(ValueError, match="theta"):
        empirical_distribution(star(5), trials=10, seed=0, theta=0)
    with pytest.raises(TypeError):
        empirical_distribution(star(5), trials=10, seed=0, theta=2.5)


def test_empirical_rejects_theta_where_no_attempt_succeeds():
    # every vertex of K_4 is heavy at theta 2, so no attempt can succeed
    with pytest.raises(ValueError, match="no attempt"):
        empirical_distribution(clique(4), trials=1, seed=0, theta=2)
    uniform = {e: Fraction(1, 12) for e in clique(4).directed_edges()}
    with pytest.raises(ValueError, match="no attempt"):
        empirical_distribution(clique(4), trials=1, seed=0, theta=2, reference=uniform)


def test_empirical_config_mode_rejects_theta_where_no_attempt_succeeds(monkeypatch):
    # q = 4 <= n = 4 keeps the mixture, and no attempt of K_4 at theta 2 can succeed
    def no_trials(*args):
        raise AssertionError("a trial ran before the check")

    monkeypatch.setattr("edgesample.experiments._runs", no_trials)
    cfg = SamplerConfig(theta=2, q=4)
    with pytest.raises(ValueError, match="no attempt can succeed at theta=2"):
        empirical_distribution(clique(4), trials=20000, seed=0, config=cfg)
    fallback = SamplerConfig.for_graph(5, 1.0, 0.25)  # q > n = 5 on an edgeless graph
    with pytest.raises(ValueError, match="no attempt can succeed at theta=5"):
        empirical_distribution(build_graph([], 5), trials=20000, seed=0, config=fallback)


def test_analytic_makes_no_numpy_call_once_the_degree_order_exists(monkeypatch):
    # The cost of a verify at one more theta is pure Python over the graph's degree order:
    # attempt law, bounds and closeness run with the analytic module's numpy gone.
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"analytic called numpy.{name}")

    g = generate("clique_union:star:30,4", seed=13)

    def verify():  # theta 2: the star's centre and the clique are heavy, the clique with d_L = 0
        dist = attempt_distribution(g, 2)
        return dist.heavy, verify_attempt_bounds(g, 2, 0.25).as_dict(), conditional_closeness(dist)

    want = verify()
    assert want[2].max_ratio_dev > 0 and g._order is not None
    monkeypatch.setattr(analytic, "np", NoNumpy())
    assert verify() == want
