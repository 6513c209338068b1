import pickle
import random
from collections import Counter

import numpy as np
import pytest

from edgesample import (
    DirectedEdge,
    GraphConstructionError,
    attempt_distribution,
    build_graph,
    partition,
    read_edge_list,
    write_edge_list,
)
from edgesample.generators import clique, erdos_renyi, generate, star
from edgesample.graph import HEADER_SLACK, RelabeledView

from conftest import adjacency


def test_single_edge():
    g = build_graph([(0, 1)], 2)
    assert g.degree(0) == g.degree(1) == 1
    assert g.m_dir == 2


def test_path3_degrees_and_order():
    g = build_graph([(0, 1), (1, 2)], 3)
    assert g.degrees() == [1, 2, 1]
    assert g.m_dir == 4
    # neighbor order is first-appearance order of the input
    assert g.neighbors(1) == (0, 2)
    assert g.neighbor(1, 1) == 0
    assert g.neighbor(1, 2) == 2
    assert g.neighbor(0, 2) is None


@pytest.mark.parametrize(
    "edges, n, fragment",
    [
        ([(0, 1), (0, 1)], 2, "duplicate"),
        ([(0, 1), (1, 0)], 2, "duplicate"),
        ([(0, 0)], 1, "self-loop"),
        ([(0, 5)], 2, "out of range"),
    ],
)
def test_build_rejects_bad_edges(edges, n, fragment):
    with pytest.raises(GraphConstructionError, match=fragment):
        build_graph(edges, n)


def test_partition_path3_all_light():
    p = partition(build_graph([(0, 1), (1, 2)], 3), theta=2)
    assert not p.heavy.any()
    assert p.e_light == 4 and p.e_heavy == 0


def test_partition_star5():
    p = partition(star(5), theta=3)
    assert np.flatnonzero(p.heavy).tolist() == [0]
    assert p.e_light == 5 and p.e_heavy == 5


def test_partition_clique4_all_heavy():
    p = partition(clique(4), theta=2)
    assert p.heavy.all()
    assert p.e_light == 0 and p.e_heavy == 12


def test_light_degree_examples():
    assert attempt_distribution(star(5), 3).heavy == {0: (5, 5)}  # v: (d_L(v), d(v))
    assert attempt_distribution(clique(4), 2).heavy == {v: (0, 3) for v in range(4)}


def test_graph_pickles_and_reads_python_ints():
    g = erdos_renyi(30, 0.2, seed=3)
    h = pickle.loads(pickle.dumps(g))
    assert h.n == g.n and adjacency(h) == adjacency(g)
    assert h.offsets.tolist() == g.offsets.tolist() and h.targets.tolist() == g.targets.tolist()
    v = next(v for v in range(g.n) if g.degree(v))
    assert type(g.degree(v)) is int and type(h.degree(v)) is int
    assert type(g.neighbor(v, 1)) is int and type(h.neighbor(v, 1)) is int


def test_generator_counts():
    assert clique(4).m_dir == 12
    g = generate("clique_union:path:4,3", seed=5)
    assert g.n == 7 and g.m_dir == 12
    assert star(5).n == 6 and star(5).m_dir == 10


def test_generator_determinism():
    a = erdos_renyi(100, 0.1, seed=1)
    b = erdos_renyi(100, 0.1, seed=1)
    assert adjacency(a) == adjacency(b)
    c = erdos_renyi(100, 0.1, seed=2)
    assert adjacency(a) != adjacency(c)


def test_generated_graphs_are_symmetric():
    for spec, seed in [("er:60,0.2", 3), ("clique_union:er:30,0.2,5", 4), ("star:9", 0)]:
        g = generate(spec, seed=seed)
        g.validate()
        assert g.m_dir == sum(g.degrees())
        assert g.m_dir % 2 == 0


def test_e_light_monotone_in_theta():
    g = erdos_renyi(40, 0.25, seed=8)
    values = [partition(g, t).e_light for t in range(1, g.n)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == g.m_dir  # theta = n-1 makes every vertex light


def test_heavy_count_bound():
    # |H| * theta < m_dir whenever H is nonempty (heavy degrees exceed theta)
    for seed in range(5):
        g = erdos_renyi(50, 0.2, seed=seed)
        for theta in (1, 2, 4, 8):
            p = partition(g, theta)
            if p.heavy.any():
                assert np.count_nonzero(p.heavy) * theta < g.m_dir


def test_directed_edge_helpers():
    e = DirectedEdge(3, 1)
    assert e.undirected() == (1, 3)


def test_edge_list_roundtrip(tmp_path):
    g = erdos_renyi(25, 0.3, seed=6)
    target = tmp_path / "g.edges"
    write_edge_list(g, str(target))
    h = read_edge_list(str(target))
    assert h.n == g.n
    assert sorted(h.undirected_edges()) == sorted(g.undirected_edges())


def test_edge_list_parsing(tmp_path):
    target = tmp_path / "g.edges"
    target.write_text("# comment\nn 4\n0 1\n2 1\n")
    g = read_edge_list(str(target))
    assert g.n == 4
    assert g.degrees() == [1, 2, 1, 0]


def test_edge_list_default_n(tmp_path):
    target = tmp_path / "g.edges"
    target.write_text("0 1\n1 5\n")
    assert read_edge_list(str(target)).n == 6


def test_edge_list_header_bound(tmp_path):
    target = tmp_path / "g.edges"
    target.write_text(f"n {2 + HEADER_SLACK}\n0 1\n")  # one edge: two endpoints plus the slack
    assert read_edge_list(str(target)).n == 2 + HEADER_SLACK
    target.write_text(f"n {3 + HEADER_SLACK}\n0 1\n")
    with pytest.raises(GraphConstructionError, match="header names"):
        read_edge_list(str(target))


def test_edge_list_second_header_raises(tmp_path):
    target = tmp_path / "g.edges"
    target.write_text("n 5\n0 1\nn 3\n1 2\n")
    with pytest.raises(GraphConstructionError, match=f"{target}:3: second 'n' header"):
        read_edge_list(str(target))
    target.write_text("# n 3 in a comment is no header\nn 5\n0 1\n")
    assert read_edge_list(str(target)).n == 5


def test_relabeled_view_matches_rebuilt_graph():
    g = erdos_renyi(12, 0.3, seed=9)
    fixed = [(i * 5 + 3) % 12 for i in range(12)]  # a fixed permutation
    assert sorted(fixed) == list(range(12))
    lazy = RelabeledView(g, random.Random(4))
    lazy.degree(5), lazy.neighbor(0, 1), lazy.has_edge(7, 2)  # reveal a few ids through queries
    drawn = [lazy.new(w) for w in range(12)]  # then all of them
    assert sorted(drawn) == list(range(12))
    for perm, view in [(fixed, RelabeledView(g, fixed)), (drawn, lazy)]:
        rebuilt = build_graph([(perm[u], perm[v]) for u, v in g.undirected_edges()], 12)
        assert view.m_dir == rebuilt.m_dir
        for v in range(12):
            assert view.degree(v) == rebuilt.degree(v)
            assert sorted(view.neighbors(v)) == sorted(rebuilt.neighbors(v))
            for w in range(12):
                assert view.has_edge(v, w) == rebuilt.has_edge(v, w)
        # slot queries stay consistent with the view's own neighbor order
        for v in range(12):
            for i in range(1, view.degree(v) + 2):
                got = view.neighbor(v, i)
                if i <= view.degree(v):
                    assert got == view.neighbors(v)[i - 1]
                else:
                    assert got is None


def test_lazy_relabeling_is_a_uniform_permutation():
    from scipy.special import chdtrc

    g = generate("path:4")
    rng = random.Random(2024)
    counts = Counter()
    for _ in range(24_000):
        view = RelabeledView(g, rng)
        # a fixed script mixing the queries, some ids revealed by their
        # answers (old -> new) and some by being asked (new -> old)
        view.degree(0)
        w = view.neighbor(0, 1)
        view.has_edge(w, 3)
        view.neighbor(2, 2)
        old = tuple(view.old(v) for v in range(4))  # reveal the rest
        # the two maps are inverse bijections of 0..3, so nothing is left to draw
        assert view._old == dict(enumerate(old)) and sorted(old) == [0, 1, 2, 3]
        assert view._new == {o: v for v, o in view._old.items()}
        counts[old] += 1
    assert len(counts) == 24
    expected = 24_000 / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chdtrc(23, chi2) > 1e-3


def test_relabeled_view_rejects_bad_ids_and_perms():
    g = generate("path:3")
    for view in (RelabeledView(g, [2, 0, 1]), RelabeledView(g, random.Random(0))):
        for bad in (-1, 3):
            with pytest.raises(IndexError):
                view.degree(bad)
            with pytest.raises(IndexError):
                view.new(bad)
    for perm in ([0, 1], [0, 0, 1], [0, 1, 3]):
        with pytest.raises(ValueError):
            RelabeledView(g, perm)


def test_generator_spec_errors():
    for bad in ["nope:3", "er:10", "path:x", "clique_union:3", "cycle:2"]:
        with pytest.raises(ValueError):
            generate(bad, seed=0)
