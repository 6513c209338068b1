"""Property tests: the per-vertex closed form against brute force and enumeration.

Random small graphs come from two families: uniform random edge sets, and
hub cliques whose hubs own private leaves, so that heavy vertices with
heavy neighbours (the heavy-edge factor below 1) come up often. Edgeless
and dead graphs (success probability 0) are included.
"""

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
from edgesample.generators import clique
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
    assert dist.per_edge == enumerate_attempt_distribution(g, theta).per_edge
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
