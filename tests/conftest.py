"""Shared graph fixtures.

``suite_graphs`` is the fixed verification suite used by the closeness,
failure-probability, and derived-sampler tests: paths, stars, cycles, cliques,
a clique with pendant leaves, clique-unions, and seeded Erdős–Rényi graphs
up to n = 2000.

``small_catalog`` is the exhaustive-enumeration family: every connected
labeled graph on up to 5 vertices, plus named and seeded connected graphs
on 6..8 vertices (full isomorphism enumeration at n = 6..8 is out of reach
for a seconds-scale suite, so those sizes are covered by a fixed catalog).

``no_generator`` makes an oracle fail the test if anything draws from its
numpy generator, which only the kernel and the estimate's pool do.
"""

from __future__ import annotations

import itertools

import pytest

from edgesample import build_graph
from edgesample.generators import clique, cycle, erdos_renyi, generate, path, star

EPSILONS = (0.05, 0.1, 0.25, 0.45)

SUITE_SPECS = [
    ("path:2", 11),
    ("path:3", 11),
    ("path:8", 11),
    ("path:50", 11),
    ("star:5", 11),
    ("star:12", 11),
    ("star:100", 11),
    ("cycle:6", 11),
    ("cycle:25", 11),
    ("clique:4", 11),
    ("clique:8", 11),
    ("clique:20", 11),
    ("core_leaves:3,40", 11),  # hubs of degree 42, heavy at eps = 0.45 (theta = 34)
    ("clique_union:path:4,3", 11),
    ("clique_union:star:8,4", 12),
    ("clique_union:er:50,0.1,6", 13),
    ("clique_union:er:200,0.05,10", 14),
    ("er:100,0.08", 15),
    ("er:150,0.06", 16),
    ("er:300,0.03", 17),
    ("er:800,0.01", 18),
    ("er:1500,0.01", 19),
    ("er:2000,0.008", 20),
]


def adjacency(g) -> tuple[tuple[int, ...], ...]:
    """Per-vertex neighbor tuples of g, each in its fixed order."""
    return tuple(g.neighbors(v) for v in range(g.n))


def no_generator(oracle):
    """The oracle, with a numpy generator that fails the test: only the kernel
    and the estimate's pool draw from one, so its calls must take the walk."""
    def refuse(rng):
        raise AssertionError("a walked call drew from the numpy generator")

    oracle._generator = refuse
    return oracle


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1


def connected_labeled_graphs(max_n: int = 5):
    """Every connected labeled graph on 2..max_n vertices."""
    for n in range(2, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if _connected(n, edges):
                yield build_graph(edges, n)


def small_catalog():
    """Connected graphs with n <= 8 for exhaustive sample-space enumeration."""
    graphs = [(f"all-n<=5-#{i}", g) for i, g in enumerate(connected_labeled_graphs(5))]
    for n in (6, 7, 8):
        graphs.append((f"path:{n}", path(n)))
        graphs.append((f"cycle:{n}", cycle(n)))
        graphs.append((f"star:{n - 1}", star(n - 1)))
        graphs.append((f"clique:{n}", clique(n)))
    graphs.append(("k33", build_graph([(i, 3 + j) for i in range(3) for j in range(3)], 6)))
    graphs.append(("k24", build_graph([(i, 2 + j) for i in range(2) for j in range(4)], 6)))
    # lollipop: clique with a pendant path (heavy vertex with heavy neighbors)
    graphs.append(
        ("lollipop-5-3", build_graph(
            [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(4, 5), (5, 6), (6, 7)], 8
        ))
    )
    # double star: two adjacent centers, three leaves each
    graphs.append(
        ("double-star", build_graph(
            [(0, 1)] + [(0, i) for i in (2, 3, 4)] + [(1, i) for i in (5, 6, 7)], 8
        ))
    )
    for n in (6, 7, 8):
        found = 0
        seed = 0
        while found < 6:
            g = erdos_renyi(n, 0.4, seed=1000 * n + seed)
            seed += 1
            if g.m_dir >= 2 and _connected(n, list(g.undirected_edges())):
                graphs.append((f"er:{n},0.4#{seed}", g))
                found += 1
    return graphs


@pytest.fixture(scope="session")
def suite_graphs():
    return [(spec, generate(spec, seed=seed)) for spec, seed in SUITE_SPECS]


@pytest.fixture(scope="session")
def catalog_graphs():
    return small_catalog()
