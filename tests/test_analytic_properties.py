"""Property tests: the per-vertex closed form against brute force and enumeration.

Random small graphs come from two families: uniform random edge sets, and
hub cliques whose hubs own private leaves, so that heavy vertices with
heavy neighbours (the heavy-edge factor below 1) come up often. Edgeless
and dead graphs (success probability 0) are included.

The bound checks and closeness work on integer numerators over common
denominators; ``reference_bounds`` and ``reference_closeness`` state the
same formulas in plain Fraction arithmetic, and every field must match.
"""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesample import (
    attempt_distribution,
    build_graph,
    conditional_closeness,
    enumerate_attempt_distribution,
    verify_attempt_bounds,
    vertex_return_distribution,
)
from edgesample.analytic import ClosedFormDistribution, check_attempt_bounds
from edgesample.generators import clique, path, star
from edgesample.sampler import threshold_for


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(edges, n)


@st.composite
def hub_graphs(draw):
    hubs = draw(st.integers(2, 4))
    leaves = draw(st.integers(1, 4))
    n = hubs + hubs * leaves
    edges = list(combinations(range(hubs), 2))
    edges += [(i, hubs + i * leaves + k) for i in range(hubs) for k in range(leaves)]
    extra = list(combinations(range(hubs, n), 2))
    edges += draw(st.lists(st.sampled_from(extra), unique=True, max_size=3))
    return build_graph(edges, n)


@st.composite
def graph_and_theta(draw):
    g = draw(st.one_of(random_graphs(), hub_graphs()))
    return g, draw(st.integers(1, g.n))


@settings(max_examples=100, deadline=None)
@given(g=st.one_of(random_graphs(), hub_graphs()), data=st.data())
def test_one_degree_order_serves_every_theta(g, data):
    # One Graph object at every theta in 1..max degree + 1, in a drawn order: the degree
    # order is built at the first theta and read at the rest, so a stale or mis-built
    # order shows at some theta even where the first one comes out right.
    for theta in data.draw(st.permutations(range(1, int(g.deg.max(initial=0)) + 2))):
        dist = attempt_distribution(g, theta)
        assert dist.heavy == {v: (sum(g.degree(w) <= theta for w in g.neighbors(v)), g.degree(v))
                              for v in range(g.n) if g.degree(v) > theta}
        light = check_attempt_bounds(dist, 0.25).checks[0]  # margin (light - e_light) / (n theta)
        assert light.passed and light.margin * g.n * theta + dist.e_light == int(g.deg.sum(where=g.deg <= theta))


def brute_force_per_edge(g, theta):
    """The closed form evaluated edge by edge, straight from its definition."""
    per_edge = {}
    for v in range(g.n):
        d = g.degree(v)
        if d <= theta:
            p = Fraction(1, 2 * g.n * theta)
        else:
            light = sum(1 for w in g.neighbors(v) if g.degree(w) <= theta)
            p = Fraction(light, 2 * g.n * theta * d)
        for w in g.neighbors(v):
            per_edge[(v, w)] = p
    return per_edge


@settings(max_examples=200, deadline=None)
@given(case=graph_and_theta())
@example(case=(clique(4), 2))  # dead: every vertex heavy
@example(case=(build_graph([], 3), 1))  # edgeless
def test_closed_form_matches_brute_force_and_enumeration(case):
    g, theta = case
    dist = attempt_distribution(g, theta)
    assert dist.per_edge == enumerate_attempt_distribution(g, theta)
    assert verify_attempt_bounds(g, theta, 0.25).all_passed

    per_edge = brute_force_per_edge(g, theta)
    success = sum(per_edge.values(), Fraction(0))
    assert dist.success_prob == success
    if success == 0:
        with pytest.raises(ValueError):
            conditional_closeness(dist)
        with pytest.raises(ValueError):
            vertex_return_distribution(dist)
        return

    m = len(per_edge)
    cond = {e: p / success for e, p in per_edge.items()}
    rep = conditional_closeness(dist)
    assert rep.edge_count == m
    assert rep.max_ratio_dev == max(abs(p * m - 1) for p in cond.values())
    assert rep.tv_distance == sum((abs(p - Fraction(1, m)) for p in cond.values()), Fraction(0)) / 2

    halves = {}
    for (v, w), p in cond.items():
        halves[v] = halves.get(v, Fraction(0)) + p / 2
        halves[w] = halves.get(w, Fraction(0)) + p / 2
    assert vertex_return_distribution(dist) == halves


def test_hub_clique_exercises_heavy_edge_factor():
    # 4 adjacent hubs with 100 private leaves each: m = 812, theta = 81 at
    # eps 0.25, hub degree 103 with d_L = 100. The success weight is
    # 400 + 4 * 100 = 800 units, so a light edge's ratio to uniform is
    # 812/800 (deviation 3/200) and a hub edge's is (100/103) 812/800
    # (deviation 3/206).
    hubs, leaves = 4, 100
    edges = list(combinations(range(hubs), 2))
    edges += [(i, hubs + i * leaves + k) for i in range(hubs) for k in range(leaves)]
    g = build_graph(edges, hubs + hubs * leaves)
    theta = threshold_for(float(g.m_dir), 0.25)
    assert theta == 81
    rep = conditional_closeness(attempt_distribution(g, theta))
    assert rep.max_ratio_dev == Fraction(3, 200)
    assert rep.pointwise_ok(0.25)
    bounds = verify_attempt_bounds(g, theta, 0.25)
    assert bounds.all_passed
    assert all(c.applicable for c in bounds.checks)


def reference_bounds(dist, epsilon):
    """(name, applicable, passed, margin, note) of each bound check, in Fractions."""
    g, theta = dist.graph, dist.theta
    light_degrees = {v: dl for v, (dl, _) in dist.heavy.items()}
    n, m, eps = g.n, g.m_dir, Fraction(epsilon)
    unit = Fraction(1, 2 * n * theta)
    success = unit * (dist.e_light + sum(light_degrees.values()))
    light_sum = Fraction(sum(d for d in g.degrees() if d <= theta), n * theta)  # from the graph, not the record
    light_formula = Fraction(dist.e_light, n * theta)
    heavy_sum = 2 * unit * sum(light_degrees.values())
    factor = 1 - Fraction(m, theta * theta)
    upper = Fraction(dist.e_heavy, n * theta)
    lower = upper * factor
    dominance = min((dl - factor * g.degree(v) for v, dl in light_degrees.items()), default=None)
    applicable = eps * theta * theta >= 2 * m
    bound = (1 - eps) * Fraction(m, 2 * n * theta)
    return [
        ("light_success_equals_e_light_over_n_theta", True, light_sum == light_formula,
         light_sum - light_formula, f"success={float(light_sum):.6g}"),
        ("heavy_success_within_interval", True, lower <= heavy_sum <= upper,
         min(heavy_sum - lower, upper - heavy_sum),
         f"success={float(heavy_sum):.6g} in [{float(lower):.6g}, {float(upper):.6g}]"),
        ("heavy_light_degree_dominates", bool(light_degrees), dominance is None or dominance > 0, dominance,
         f"{len(light_degrees)} heavy vertices" if light_degrees else "no heavy vertices"),
        ("mixture_success_lower_bound", applicable, not applicable or success >= bound,
         success - bound if applicable else None,
         f"success={float(success):.6g} >= {float(bound):.6g}" if applicable
         else "theta below sqrt(2 m / eps); bound not claimed"),
    ]


def reference_closeness(g, theta):
    """(max_ratio_dev, tv_distance) summed over Fraction ratio classes."""
    classes = {Fraction(1): 0}
    for v in range(g.n):
        d = g.degree(v)
        ratio = Fraction(1) if d <= theta else Fraction(sum(g.degree(w) <= theta for w in g.neighbors(v)), d)
        classes[ratio] = classes.get(ratio, 0) + d
    m = g.m_dir
    w = sum(ratio * count for ratio, count in classes.items())  # success / unit
    devs = {ratio: abs(ratio * m - w) for ratio in classes}
    return max(devs.values()) / w, sum(classes[r] * dev for r, dev in devs.items()) / (2 * w * m)


def assert_bounds_match_reference(dist, epsilon):
    report = check_attempt_bounds(dist, epsilon)
    assert [(c.name, c.applicable, c.passed, c.margin, c.note) for c in report.checks] == reference_bounds(dist, epsilon)
    return report


EPSILONS = st.one_of(st.sampled_from([0.05, 0.1, 0.25, 0.45, 0.9]),
                     st.floats(0, 1, exclude_min=True, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(case=graph_and_theta(), epsilon=EPSILONS)
@example(case=(path(3), 4), epsilon=0.5)  # eps theta^2 == 2 m exactly: the mixture bound applies
@example(case=(path(3), 4), epsilon=math.nextafter(0.5, 0))  # just below: it does not
@example(case=(clique(4), 2), epsilon=0.25)  # all heavy, success 0
@example(case=(star(3), 3), epsilon=0.25)  # no heavy vertex
def test_integer_bounds_and_closeness_match_fraction_reference(case, epsilon):
    g, theta = case
    dist = attempt_distribution(g, theta)
    assert_bounds_match_reference(dist, epsilon)
    if dist.success_prob == 0:
        return
    rep = conditional_closeness(dist)
    assert (rep.max_ratio_dev, rep.tv_distance) == reference_closeness(g, theta)


def test_applicability_edge_and_boundary_cases():
    edge = {c.name: c for c in check_attempt_bounds(attempt_distribution(path(3), 4), 0.5).checks}
    assert edge["mixture_success_lower_bound"].applicable  # 0.5 * 4^2 == 2 * 4
    below = check_attempt_bounds(attempt_distribution(path(3), 4), math.nextafter(0.5, 0)).checks
    assert not below[3].applicable and below[3].margin is None
    dead = attempt_distribution(clique(4), 2)
    assert dead.success_prob == 0 and dead.heavy == {v: (0, 3) for v in range(4)}
    assert not check_attempt_bounds(dead, 0.25).checks[3].applicable  # theta 2 is far below sqrt(2 m / eps)
    none = check_attempt_bounds(attempt_distribution(star(3), 3), 0.25).checks[2]
    assert (none.applicable, none.passed, none.margin, none.note) == (False, True, None, "no heavy vertices")


@pytest.mark.parametrize("d_light, passed", [(3, True), (2, False), (1, False)])
def test_light_degree_dominance_can_fail(d_light, passed):
    # On a real graph fewer than m/theta vertices are heavy, so every margin
    # d_L(v) - (1 - m/theta^2) d(v) is positive; the failing side is reached
    # only by a distribution given a smaller d_L than the graph has. star(10)
    # at theta 5: the factor is 1 - 20/25 = 1/5 and the center has d = 10,
    # so the margin is d_L - 2.
    g = star(10)
    dist = ClosedFormDistribution(g, 5, {0: (d_light, 10)})
    check = assert_bounds_match_reference(dist, 0.25).checks[2]
    assert (check.passed, check.margin) == (passed, Fraction(d_light - 2))


def test_light_success_check_can_fail():
    # star(5) at theta 3: the center (d = 5) is heavy, so the light track
    # covers the 5 leaf edges. A record that leaves the center out of
    # ``heavy`` claims e_light = 10, and the check counts 5 from the degrees.
    dist = ClosedFormDistribution(star(5), 3, {})
    check = assert_bounds_match_reference(dist, 0.25).checks[0]
    assert check.name == "light_success_equals_e_light_over_n_theta"
    assert (check.passed, check.margin) == (False, Fraction(5 - 10, 6 * 3))


def test_vertex_return_distribution_exact_beyond_int64():
    # Twelve adjacent hubs of distinct prime degree p, each with p - 11
    # private leaves, at theta 11: hub ratios (p - 11)/p have pairwise
    # coprime denominators, so the integer edge weights need
    # 2 lcm m_dir >= 2^63 and the Python-int path runs.
    primes = [13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    hubs = len(primes)
    edges, leaf = list(combinations(range(hubs), 2)), hubs
    for i, p in enumerate(primes):
        edges += [(i, leaf + k) for k in range(p - hubs + 1)]
        leaf += p - hubs + 1
    g = build_graph(edges, leaf)
    assert g.degrees()[:hubs] == primes
    assert 2 * math.prod(primes) * g.m_dir >= 2**63
    dist = attempt_distribution(g, hubs - 1)
    success = dist.success_prob
    halves = {}
    for (v, w), p in brute_force_per_edge(g, hubs - 1).items():
        halves[v] = halves.get(v, Fraction(0)) + p / success / 2
        halves[w] = halves.get(w, Fraction(0)) + p / success / 2
    assert vertex_return_distribution(dist) == halves
