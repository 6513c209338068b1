"""The CSR graph core answers exactly as the per-vertex tuple graph did.

The references below are the loop implementations the CSR core replaced:
``build_graph`` appending each edge to two Python lists behind a set of
seen pairs, ``_sample_distinct`` deduplicating with a Python set, and
``clique_union``/``erdos_renyi`` building Python edge lists. Both sides
get the same input and must agree on every query, on the order of every
edge listing, on the exception raised for a bad edge list, and, for the
generators, on the graph and the random-generator state afterwards.
"""

import hashlib
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesample import GraphConstructionError, RelabeledView, build_graph, cli
from edgesample.experiments import planted_union
from edgesample.graph import MAX_VERTICES, SHORT_ROW
from edgesample.generators import _sample_distinct, clique_union, erdos_renyi, generate

# ---------------------------------------------------------------------------
# The references: the loop implementations, as they were
# ---------------------------------------------------------------------------


def reference_build(edge_list, n):
    """(n, adjacency tuple-of-tuples) or the exception the loop raised."""
    if n < 0:
        raise GraphConstructionError(f"vertex count must be nonnegative, got {n}")
    adjacency = [[] for _ in range(n)]
    seen = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphConstructionError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphConstructionError(f"self-loop ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphConstructionError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    return tuple(tuple(a) for a in adjacency)


def reference_directed(adjacency):
    return [(u, v) for u, nbrs in enumerate(adjacency) for v in nbrs]


def reference_undirected(adjacency):
    return [(u, v) for u, nbrs in enumerate(adjacency) for v in nbrs if u < v]


def reference_sample_distinct(rng, n_total, m):
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if m > n_total:
        raise ValueError(f"cannot draw {m} distinct values from {n_total}")
    if 3 * m >= n_total:
        return np.sort(rng.permutation(n_total)[:m])
    picked = set()
    while len(picked) < m:
        batch = rng.integers(0, n_total, size=int(1.2 * (m - len(picked))) + 8)
        picked.update(batch.tolist())
        if len(picked) > m:
            drop = rng.permutation(sorted(picked))[: len(picked) - m]
            picked.difference_update(drop.tolist())
    return np.sort(np.fromiter(picked, dtype=np.int64, count=m))


def reference_erdos_renyi(n, p, seed):
    rng = np.random.default_rng(seed)
    n_pairs = n * (n - 1) // 2
    m = int(rng.binomial(n_pairs, p)) if n_pairs > 0 else 0
    chosen = reference_sample_distinct(rng, n_pairs, m)
    starts = np.zeros(n, dtype=np.int64)
    if n > 1:
        starts[1:] = np.cumsum(np.arange(n - 1, 0, -1))
    i = np.searchsorted(starts, chosen, side="right") - 1
    j = chosen - starts[i] + i + 1
    return reference_build(sorted(zip(i.tolist(), j.tolist())), n)


def reference_clique_union(base_adjacency, k, seed):
    base_n = len(base_adjacency)
    n = base_n + k
    edges = reference_undirected(base_adjacency)
    edges += [(base_n + i, base_n + j) for i in range(k) for j in range(i + 1, k)]
    perm = np.random.default_rng(seed).permutation(n)
    return reference_build([(int(perm[u]), int(perm[v])) for u, v in edges], n)


# ---------------------------------------------------------------------------
# Edge lists: simple graphs, hub cliques with leaves, and hostile lists
# ---------------------------------------------------------------------------


def oriented(draw, pairs):
    """The pairs in a drawn order, each in a drawn orientation."""
    pairs = draw(st.permutations(pairs))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return [(v, u) if f else (u, v) for (u, v), f in zip(pairs, flips)]


@st.composite
def simple_edge_lists(draw):
    if draw(st.booleans()):
        n = draw(st.integers(0, 12))
        pairs = list(combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return oriented(draw, chosen), n
    hubs = draw(st.integers(1, 5))
    leaves = draw(st.integers(0, 6))
    edges = list(combinations(range(hubs), 2))
    edges += [(i, hubs + i * leaves + j) for i in range(hubs) for j in range(leaves)]
    return oriented(draw, edges), hubs + hubs * leaves


@st.composite
def hostile_edge_lists(draw):
    """A simple edge list with bad edges spliced in anywhere (a "range"
    pair may land in range and be a good edge; it is compared all the same)."""
    edges, n = draw(simple_edge_lists())
    ids = st.one_of(st.integers(-3, n + 3), st.sampled_from([-(2**70), 2**63, 2**70]))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["range", "loop", "duplicate", "reversed"]))
        if kind == "range":
            bad = (draw(ids), draw(ids))
        elif kind == "loop":
            v = draw(st.integers(-1, n))
            bad = (v, v)
        elif edges:
            u, v = draw(st.sampled_from(edges))
            bad = (u, v) if kind == "duplicate" else (v, u)
        else:
            bad = (0, 1)
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return edges, n


def outcome(build, edges, n):
    """The adjacency built, or the type and message of the error raised."""
    try:
        g = build(edges, n)
    except (GraphConstructionError, OverflowError) as exc:
        return type(exc), str(exc)
    return g if isinstance(g, tuple) else g.adjacency


@settings(max_examples=300, deadline=None)
@given(simple_edge_lists())
@example(case=([], 0))
@example(case=([], 3))
def test_csr_graph_matches_reference(case):
    edges, n = case
    adjacency = reference_build(edges, n)
    sets = [frozenset(a) for a in adjacency]
    for source in (edges, np.array(edges, dtype=np.int64).reshape(-1, 2)):
        g = build_graph(source, n)
        g.validate()
        assert g.n == n and g.m_dir == sum(map(len, adjacency))
        assert g.adjacency == adjacency
        assert g.degrees() == [len(a) for a in adjacency]
        for v in range(n):
            d = len(adjacency[v])
            assert g.degree(v) == d
            assert g.neighbors(v) == adjacency[v]
            assert [g.neighbor(v, i) for i in range(1, d + 2)] == [*adjacency[v], None]
            with pytest.raises(ValueError):
                g.neighbor(v, 0)
            assert [g.has_edge(v, w) for w in range(n)] == [w in sets[v] for w in range(n)]
        assert list(g.directed_edges()) == reference_directed(adjacency)
        assert list(g.undirected_edges()) == reference_undirected(adjacency)
        assert g.edge_array().tolist() == [list(e) for e in reference_undirected(adjacency)]


@st.composite
def rows_around_short_row(draw):
    """Up to four hubs, each joined to a drawn number of other ids, so that
    rows fall on both sides of ``SHORT_ROW`` (Python scan / numpy scan)."""
    n = 2 * SHORT_ROW + 8
    sizes = st.sampled_from([0, 1, SHORT_ROW - 1, SHORT_ROW, SHORT_ROW + 1, 2 * SHORT_ROW]) | st.integers(0, n - 1)
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = set()
    for hub in range(draw(st.integers(1, 4))):
        edges |= {(min(hub, w), max(hub, w)) for w in rng.sample([w for w in range(n) if w != hub], draw(sizes))}
    return sorted(edges), n


# Vertex 0 has 2 * SHORT_ROW neighbours and vertex 1 exactly SHORT_ROW (0 and 2..SHORT_ROW). In
# BOTH_LONG their rows have 2 * SHORT_ROW + 1 and SHORT_ROW + 1 entries, with edge (0, 1) last in both.
LONG_AND_SHORT = ([(0, w) for w in range(1, 2 * SHORT_ROW + 1)] + [(1, w) for w in range(2, SHORT_ROW + 1)],
                  2 * SHORT_ROW + 8)
BOTH_LONG = ([(0, w) for w in range(2, 2 * SHORT_ROW + 2)] + [(1, w) for w in range(2, SHORT_ROW + 2)] + [(0, 1)],
             2 * SHORT_ROW + 8)


@settings(max_examples=60, deadline=None)
@given(rows_around_short_row(), st.lists(st.integers(-2, 2 * SHORT_ROW + 9), max_size=3))
@example(case=LONG_AND_SHORT, extra=[])
@example(case=BOTH_LONG, extra=[])
def test_has_edge_matches_pair_set_across_the_short_row_cutoff(case, extra):
    edges, n = case
    g = build_graph(edges, n)
    pairs = {*edges, *((v, u) for u, v in edges)}
    for u in [0, 1, 2, 3, *extra]:
        for v in [-(2**63), -1, *range(n), n, n + 1, 2**63]:  # u == v and out-of-range ids included
            assert g.has_edge(u, v) is g.has_edge(v, u) is ((u, v) in pairs)


@settings(max_examples=300, deadline=None)
@given(hostile_edge_lists())
@example(case=([(0, 1)], 0))
@example(case=([(0, 0)], 0))
def test_hostile_edge_lists_raise_as_reference(case):
    edges, n = case
    assert outcome(build_graph, edges, n) == outcome(reference_build, edges, n)


def test_negative_vertex_count_and_malformed_rows_are_rejected():
    assert outcome(build_graph, [], -1) == outcome(reference_build, [], -1)
    with pytest.raises(GraphConstructionError, match="pairs"):
        build_graph(np.zeros((2, 3), dtype=np.int64), 4)


def test_csr_arrays_are_read_only():
    g = build_graph([(0, 1), (1, 2)], 3)
    assert g.offsets.tolist() == [0, 1, 3, 4] and g.targets.tolist() == [1, 0, 2, 1]
    for a in (g.offsets, g.targets):
        with pytest.raises(ValueError):
            a[0] = 5


# ---------------------------------------------------------------------------
# Generators: the same graphs and the same random stream
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.data(), st.integers(0, 2**32))
def test_sample_distinct_matches_reference(n_total, data, seed):
    m = data.draw(st.integers(0, n_total))
    new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _sample_distinct(new, n_total, m)
    assert got.tolist() == reference_sample_distinct(ref, n_total, m).tolist()
    assert new.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n, p, seed", [(1, 0.5, 0), (2, 1.0, 1), (60, 0.2, 3), (300, 0.05, 4), (2000, 0.006, 3)])
def test_erdos_renyi_matches_reference(n, p, seed):
    assert erdos_renyi(n, p, seed).adjacency == reference_erdos_renyi(n, p, seed)


ER_DIGESTS = {  # sha256 of the offsets and targets bytes, as the generator first wrote them
    (5000, 0.004, 1): (  # drops the overshoot of a rejection batch
        "68076a7f54c7cf64ae15026da1fd570d64190b79db921782c04ec44129c3e756",
        "c74a76c86835db403fcc3c09c6edbb39c96dc79dcfc8f3fa7335b767ebe97391",
    ),
    (300, 0.5, 3): (  # dense: one permutation of all pairs
        "4a87ad16f215d5746e62cac06eca4889e17e198b8d72a14a03e2cc23b6b21b05",
        "8dd0909b111b99ed871e15a448775400b7e7867fe2b4d08e9bbece4258251840",
    ),
    (2, 1.0, 4): (
        "ab25350e3e65efebe24584461683ecda68725576e825e550038b90e7b1479946",
        "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0",
    ),
}


@pytest.mark.parametrize("n, p, seed", ER_DIGESTS)
def test_erdos_renyi_output_is_pinned(n, p, seed):
    g = erdos_renyi(n, p, seed)
    assert g.offsets.dtype == g.targets.dtype == np.int64
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (g.offsets, g.targets))
    assert digests == ER_DIGESTS[n, p, seed]


class RecordingGenerator:
    """A numpy generator that records the name of each method called on it."""

    def __init__(self, seed):
        self._rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._rng, name)


@pytest.mark.parametrize("seed", range(5))
def test_sample_distinct_trims_an_overshoot(seed):
    # 10**12 values: a batch of 1.2 m + 8 all but surely holds more than m
    # distinct ones, and the recorded permutation shows the trim ran.
    rng = RecordingGenerator(seed)
    got = _sample_distinct(rng, 10**12, 1000)
    assert rng.calls == ["integers", "permutation"]
    assert len(got) == 1000 and got.dtype == np.int64
    assert np.all(got[1:] > got[:-1]) and 0 <= got[0] and got[-1] < 10**12


@pytest.mark.parametrize("spec, k, seed", [("path:4", 3, 6), ("star:8", 1, 2), ("er:30,0.2", 5, 5), ("er:200,0.05", 20, 4)])
def test_clique_union_matches_reference(spec, k, seed):
    base = generate(spec, seed)
    assert clique_union(base, k, seed + 1).adjacency == reference_clique_union(base.adjacency, k, seed + 1)
    assert generate(f"clique_union:{spec},{k}", seed).adjacency == reference_clique_union(
        base.adjacency, k, seed + 1
    )


def test_relabeled_view_answers_with_python_ints():
    union, _ = planted_union(erdos_renyi(30, 0.2, seed=2), 4)
    perm = np.random.default_rng(7).permutation(union.n)  # an explicit numpy permutation
    rng = random.Random(1)
    for view in (RelabeledView(union, perm), RelabeledView(union, random.Random(7))):  # and a lazy one
        for v in rng.sample(range(union.n), 10):
            if view.degree(v):
                assert type(view.neighbor(v, 1)) is int
            assert type(view.degree(v)) is int
            assert all(type(w) is int for w in view.neighbors(v))


def test_vertex_ids_beyond_int64_fail_cleanly(tmp_path, capsys):
    with pytest.raises(GraphConstructionError, match="exceeds the supported maximum"):
        build_graph([(0, 1)], MAX_VERTICES + 1)  # rejected before anything is allocated
    huge = tmp_path / "huge.edges"
    huge.write_text("0 1\n99999999999999999999999 2\n")  # default n = max id + 1
    assert cli.main(["verify", "--graph", str(huge), "--seed", "1"]) == cli.EXIT_IO
    assert "exceeds the supported maximum" in capsys.readouterr().err
    huge.write_text("n 3\n0 1\n99999999999999999999999 2\n")
    assert cli.main(["verify", "--graph", str(huge), "--seed", "1"]) == cli.EXIT_IO
    assert "edge (99999999999999999999999, 2) out of range for n=3" in capsys.readouterr().err
