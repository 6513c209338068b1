import copy
import pickle
import random
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

from edgesample import (
    DirectedEdge,
    GraphConstructionError,
    attempt_distribution,
    build_graph,
    conditional_closeness,
    read_edge_list,
    verify_attempt_bounds,
    write_edge_list,
)
from edgesample.generators import clique, erdos_renyi, generate, star
from edgesample.graph import HEADER_SLACK, Graph, RelabeledView

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


@pytest.mark.parametrize(
    "offsets, targets, message",
    [
        ([1, 1], [], "offsets are not a CSR offset array"),  # not from 0
        ([0, 1, 1], [1, 0], "offsets are not a CSR offset array"),  # not to len(targets)
        ([0, 2, 1], [1], "offsets are not a CSR offset array"),  # a negative degree
        ([0, 1, 2], [5, 0], r"neighbor 5 of 0 out of range"),
        ([0, 1, 2], [-1, 0], r"neighbor -1 of 0 out of range"),
        ([0, 1, 3], [1, 0, 1], "self-loop at vertex 1"),
        ([0, 2, 4], [1, 1, 0, 0], "duplicate neighbor in adjacency of 0"),
        ([0, 1, 3, 3], [1, 0, 2], r"asymmetric edge \(1, 2\)"),  # 1 lists 2, 2 lists nothing
    ],
)
def test_validate_rejects_broken_csr_arrays(offsets, targets, message):
    g = Graph(np.array(offsets, np.int64), np.array(targets, np.int64))  # the constructor trusts its arrays
    with pytest.raises(GraphConstructionError, match=message):
        g.validate()


def test_partition_path3_all_light():
    p = attempt_distribution(build_graph([(0, 1), (1, 2)], 3), theta=2)
    assert not p.heavy
    assert p.e_light == 4 and p.e_heavy == 0


def test_partition_star5():
    p = attempt_distribution(star(5), theta=3)
    assert list(p.heavy) == [0]
    assert p.e_light == 5 and p.e_heavy == 5


def test_partition_clique4_all_heavy():
    p = attempt_distribution(clique(4), theta=2)
    assert list(p.heavy) == [0, 1, 2, 3]
    assert p.e_light == 0 and p.e_heavy == 12


def test_light_degree_examples():
    assert attempt_distribution(star(5), 3).heavy == {0: (5, 5)}  # v: (d_L(v), d(v))
    assert attempt_distribution(clique(4), 2).heavy == {v: (0, 3) for v in range(4)}


@pytest.mark.parametrize("v", [-1, -3, 3])
def test_scalar_queries_reject_out_of_range_ids(v):
    # the memoryviews would wrap -1 and -3 (degree(-1) read -4, neighbors(-3) vertex 1's row)
    g = build_graph([(0, 1), (1, 2)], 3)
    for query in (g.degree, g.neighbors, lambda v: g.neighbor(v, 1)):
        with pytest.raises(IndexError, match=f"vertex {v} out of range for n=3"):
            query(v)
    assert not g.has_edge(v, 1)


def test_graph_pickles_and_reads_python_ints():
    g = erdos_renyi(30, 0.2, seed=3)
    h = pickle.loads(pickle.dumps(g))
    assert h.n == g.n and adjacency(h) == adjacency(g)
    assert h.offsets.tolist() == g.offsets.tolist() and h.targets.tolist() == g.targets.tolist()
    v = next(v for v in range(g.n) if g.degree(v))
    assert type(g.degree(v)) is int and type(h.degree(v)) is int
    assert type(g.neighbor(v, 1)) is int and type(h.neighbor(v, 1)) is int
    # The degree array is np.diff(offsets), the origin array np.repeat(arange(n), deg):
    # read-only, one per graph, and made anew by every copy.
    # The origin array's memoryview _f comes with it, and is rebuilt, not carried, by a copy.
    origins = g._origins()
    for twin in (g, h, copy.deepcopy(g)):
        assert twin.deg.tolist() == np.diff(twin.offsets).tolist() == g.degrees()
        assert twin.deg.dtype == np.int64 and (twin is g or twin.deg is not g.deg)
        assert twin is g or twin._f is None
        assert twin._origins().tolist() == np.repeat(np.arange(g.n), g.deg).tolist() == twin._f.tolist()
        assert twin._origins() is twin._origins() and (twin is g or twin._origins() is not origins)
        assert twin._f.obj is twin._origins() and type(twin._f[0]) is int
        with pytest.raises(ValueError):
            twin.deg[v] = 0
        with pytest.raises(ValueError):
            twin._origins()[0] = 1
        with pytest.raises(TypeError):
            twin._f[0] = 1


def test_degree_order_is_built_once_and_not_pickled():
    # The order is lazy, kept, read-only and left out of a pickle; the restored graph
    # builds its own and gives the same attempt law at every theta.
    g = generate("clique_union:star:30,4", seed=13)
    assert g._order is None
    order = g._degree_order()
    assert g._degree_order() is order and all(view.readonly for view in order)
    ids, degs, sums, rows = (view.tolist() for view in order)
    assert degs == sorted(g.degrees()) and ids == sorted(range(g.n), key=g.degree)
    assert sums == np.concatenate([[0], np.cumsum(degs)]).tolist()
    assert rows == [d for v in range(g.n) for d in sorted(map(g.degree, g.neighbors(v)))]
    h = pickle.loads(pickle.dumps(g))
    assert h._order is None
    for theta in range(1, max(degs) + 2):
        want, got = attempt_distribution(g, theta), attempt_distribution(h, theta)
        assert (got.heavy, got.pairs, got.success_prob) == (want.heavy, want.pairs, want.success_prob)
    assert h._order is not None and h._order is not order


def test_degree_order_of_edgeless_and_empty_graphs():
    # As before the order came in: no heavy vertex and success 0 on an edgeless graph, whose
    # bounds all hold and whose conditional is undefined; n = 0 has no unit 1/(2 n theta) at all.
    g = build_graph([], 3)
    for theta in (1, 5):
        dist = attempt_distribution(g, theta)
        assert (dist.heavy, dist.e_light, dist.e_heavy, dist.pairs, dist.weight) == ({}, 0, 0, {(1, 1): 0}, 0)
        assert dist.success_prob == 0 and verify_attempt_bounds(g, theta, 0.25).all_passed
        with pytest.raises(ValueError, match="success probability is zero"):
            conditional_closeness(dist)
    empty = build_graph([], 0)
    assert [view.tolist() for view in empty._degree_order()] == [[], [], [0], []]
    for call in (lambda: attempt_distribution(empty, 1), lambda: verify_attempt_bounds(empty, 1, 0.25)):
        with pytest.raises(ZeroDivisionError):
            call()


@pytest.mark.parametrize("degrees", [
    [0, 2, 0, 0, 3, 1, 0],  # isolated: vertex 0, a run in the middle, the last of the hubs
    [0, 0, 1, 1, 0, 0],
    [4, 0, 0, 0, 0, 4],
    [1, 1],
])
def test_origin_array_matches_bisect_over_offsets(degrees):
    # The walk's origin read _f[r] is the bisect over offsets it replaced, for every directed edge r.
    # The hubs' leaves follow them, then two isolated vertices, so the last vertex has degree 0 too.
    k = sum(degrees)
    leaves = iter(range(len(degrees), len(degrees) + k))
    g = build_graph([(v, next(leaves)) for v, d in enumerate(degrees) for _ in range(d)], len(degrees) + k + 2)
    assert g.degrees() == degrees + [1] * k + [0, 0]
    g._origins()
    for r in range(g.m_dir):
        assert g._f[r] == bisect_right(g._o, r) - 1 == g._origins()[r]
        assert g._o[g._f[r]] <= r < g._o[g._f[r] + 1]


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
    values = [attempt_distribution(g, t).e_light for t in range(1, g.n)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == g.m_dir  # theta = n-1 makes every vertex light


def test_heavy_count_bound():
    # |H| * theta < m_dir whenever H is nonempty (heavy degrees exceed theta)
    for seed in range(5):
        g = erdos_renyi(50, 0.2, seed=seed)
        for theta in (1, 2, 4, 8):
            p = attempt_distribution(g, theta)
            if p.heavy:
                assert len(p.heavy) * theta < g.m_dir


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


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_non_utf8_byte_is_named_at_its_line(tmp_path, newline):
    # The bad byte lies past the first 8 KiB: a reader that decodes chunks
    # ahead of the lines it hands out would blame an earlier line.
    target = tmp_path / "g.edges"
    good = "".join(f"{i} {i + 1}{newline}" for i in range(2000))
    target.write_bytes(good.encode() + b"5 \xff" + newline.encode())
    assert len(good) > 8192
    with pytest.raises(GraphConstructionError, match=f"{target}:2001: 'utf-8' codec can't decode byte 0xff in position {len(good) + 2}"):
        read_edge_list(str(target))


@pytest.mark.parametrize("header", [True, False])
def test_edge_list_roundtrip_on_a_relabeled_union(tmp_path, header):
    g = generate("clique_union:er:300,0.05,12", seed=3)
    target = tmp_path / "g.edges"
    write_edge_list(g, str(target))
    if not header:
        target.write_text(target.read_text().split("\n", 1)[1])
    h = read_edge_list(str(target))
    assert h.n == g.n  # vertex n - 1 has edges, so max id + 1 = n without the header too
    assert h.edge_array().tolist() == g.edge_array().tolist()


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("n 3\n# c\n0 1\n\n1 2\n1 0\n# after\n\n", 6, "duplicate edge (1, 0)"),
        ("0 1\n  \n2 2\n", 3, "self-loop (2, 2)"),
        ("n 3\n0 1\nn 3\n", 3, "second 'n' header 'n 3'"),
        ("# one\n# two\nn 3\n0 1\n1 7\n", 5, "edge (1, 7) out of range for n=3"),
    ],
)
def test_refused_edges_are_named_at_their_line(tmp_path, text, line, message):
    target = tmp_path / "g.edges"
    target.write_text(text)
    with pytest.raises(GraphConstructionError) as err:
        read_edge_list(str(target))
    assert str(err.value) == f"{target}:{line}: {message}"


def test_small_generators_build_their_edge_lists():
    assert adjacency(generate("path:5")) == adjacency(build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 5))
    assert adjacency(generate("cycle:4")) == adjacency(build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], 4))
    assert adjacency(generate("star:3")) == adjacency(build_graph([(0, 1), (0, 2), (0, 3)], 4))
    assert generate("path:1").m_dir == 0
    g = generate("core_leaves:3,2")
    assert adjacency(g) == adjacency(build_graph([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (2, 8)], 9))
    assert generate("core_leaves:1,0").n == 1 and generate("core_leaves:4,0").m_dir == 12
    for bad in ["core_leaves:0,3", "core_leaves:2,-1", "core_leaves:3"]:
        with pytest.raises(ValueError, match="bad generator spec"):
            generate(bad)
