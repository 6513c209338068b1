import math
import random
from dataclasses import asdict, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesample import BudgetExceeded, QueryCounts, QueryOracle, RelabeledView, build_graph
from edgesample.generators import erdos_renyi, path, star


def test_single_vertex_graph():
    o = QueryOracle(build_graph([], 1), seed=0)
    assert all(o.random_vertex() == 0 for _ in range(20))
    assert o.counts.vertex == 20


def test_counters_increment_once_per_call():
    o = QueryOracle(path(3), seed=1)
    o.random_vertex()
    o.degree(1)
    o.neighbor(0, 1)
    o.neighbor(0, 2)  # fail outcome still counts
    o.pair(0, 2)
    assert o.counts.as_dict() == {
        "vertex": 1,
        "degree": 1,
        "neighbor": 2,
        "pair": 1,
        "total": 5,
    }


def test_degree_answers():
    o = QueryOracle(star(5), seed=0)
    assert o.degree(0) == 5
    assert all(o.degree(v) == 1 for v in range(1, 6))
    iso = QueryOracle(build_graph([(0, 1)], 3), seed=0)
    assert iso.degree(2) == 0


def test_neighbor_fail_semantics():
    g = build_graph([(0, 1), (1, 2)], 3)
    o = QueryOracle(g, seed=0)
    assert o.neighbor(1, 1) == 0  # input order
    assert o.neighbor(1, 2) == 2
    assert o.neighbor(0, 2) is None  # i > d(0): fail, a domain value
    assert o.neighbor(0, 1) == 1  # i = d(v) boundary is the last neighbor
    with pytest.raises(ValueError):
        o.neighbor(0, 0)


def test_pair_answers():
    o = QueryOracle(build_graph([(0, 1), (1, 2)], 3), seed=0)
    assert o.pair(0, 1) is True
    assert o.pair(0, 2) is False
    assert o.pair(1, 1) is False  # no self-loops


def test_out_of_range_is_programmer_error():
    # a refused id or index is not charged, and a view reveals and witnesses nothing for it
    view = RelabeledView(path(3), random.Random(0))
    view.marked = range(3)
    for graph in (path(3), view):
        o = QueryOracle(graph, seed=0)
        with pytest.raises(IndexError):
            o.degree(3)
        with pytest.raises(IndexError):
            o.neighbor(-1, 1)
        with pytest.raises(ValueError):
            o.neighbor(0, 0)
        with pytest.raises(IndexError):
            o.pair(0, 99)
        assert o.counts.total == 0
        with pytest.raises(BudgetExceeded):  # the budget is checked before the id
            QueryOracle(graph, seed=0, budget=0).degree(3)
    assert not view.witnessed and not view._old


def test_random_vertex_uniformity():
    # n=4, 10^6 draws: each frequency within 5 sigma of 1/4
    n, draws = 4, 10**6
    o = QueryOracle(build_graph([], n), seed=123)
    counts = [0] * n
    for _ in range(draws):
        counts[o.random_vertex()] += 1
    sigma = math.sqrt(draws * 0.25 * 0.75)
    for c in counts:
        assert abs(c - draws / 4) < 5 * sigma
    assert o.counts.vertex == draws


def test_replay_is_deterministic():
    g = erdos_renyi(30, 0.2, seed=4)

    def transcript(seed):
        o = QueryOracle(g, seed=seed)
        out = []
        for _ in range(50):
            v = o.random_vertex()
            out.append((v, o.degree(v), o.neighbor(v, 1)))
        return out

    assert transcript(7) == transcript(7)
    assert transcript(7) != transcript(8)


def test_counts_merge_by_addition():
    a = QueryCounts(vertex=2, degree=1)
    b = QueryCounts(neighbor=3, pair=1)
    merged = a + b
    assert merged.as_dict() == {
        "vertex": 2,
        "degree": 1,
        "neighbor": 3,
        "pair": 1,
        "total": 7,
    }
    assert (merged - b).as_dict() == a.as_dict()


@given(st.data())
def test_counts_arithmetic_covers_every_field(data):
    # +, -, copy and total name each field by hand: a counter declared on
    # QueryCounts but left out of one of them fails here
    names = [f.name for f in fields(QueryCounts)]
    a, b = (data.draw(st.fixed_dictionaries({k: st.integers(-2**70, 2**70) for k in names})) for _ in range(2))
    x, y = QueryCounts(**a), QueryCounts(**b)
    assert asdict(x + y) == {k: a[k] + b[k] for k in names}
    assert asdict(x - y) == {k: a[k] - b[k] for k in names}
    copied = x.copy()
    assert copied is not x and asdict(copied) == a
    assert x.total == sum(a.values())
    assert x.as_dict() == {**a, "total": sum(a.values())}


def test_budget_cuts_off_hard():
    o = QueryOracle(path(3), seed=0, budget=2)
    o.random_vertex()
    o.degree(0)
    with pytest.raises(BudgetExceeded):
        o.random_vertex()
    assert o.counts.total == 2  # the refused call was never charged
