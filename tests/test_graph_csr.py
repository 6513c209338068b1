"""The CSR graph core answers exactly as the per-vertex tuple graph did.

The references below are the loop implementations the CSR core replaced:
``build_graph`` appending each edge to two Python lists behind a set of
seen pairs, ``_sample_distinct`` deduplicating with a Python set,
``clique_union``/``erdos_renyi`` building Python edge lists, and
``read_edge_list``'s line loop before its two-token fast path. Both sides
get the same input and must agree on every query, on the order of every
edge listing, on the exception raised for a bad edge list or file, and,
for the generators, on the graph and the random-generator state afterwards.
``build_graph`` must also give one outcome whatever form the edges take.
"""

import hashlib
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesample import GraphConstructionError, RelabeledView, build_graph, cli, read_edge_list
from edgesample.experiments import planted_union
from edgesample.graph import HEADER_SLACK, MAX_VERTICES, SHORT_ROW
from edgesample.generators import _sample_distinct, clique_union, erdos_renyi, generate

from conftest import adjacency

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


def outcome(build, *args):
    """The adjacency built, or the type and message of the error raised
    (numpy's ValueError for ragged rows included)."""
    try:
        g = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return g if isinstance(g, tuple) else adjacency(g)


@settings(max_examples=300, deadline=None)
@given(simple_edge_lists())
@example(case=([], 0))
@example(case=([], 3))
def test_csr_graph_matches_reference(case):
    edges, n = case
    ref = reference_build(edges, n)
    sets = [frozenset(a) for a in ref]
    for source in (edges, np.array(edges, dtype=np.int64).reshape(-1, 2)):
        g = build_graph(source, n)
        g.validate()
        assert g.n == n and g.m_dir == sum(map(len, ref))
        assert adjacency(g) == ref
        assert g.degrees() == [len(a) for a in ref]
        for v in range(n):
            d = len(ref[v])
            assert g.degree(v) == d
            assert g.neighbors(v) == ref[v]
            assert [g.neighbor(v, i) for i in range(1, d + 2)] == [*ref[v], None]
            with pytest.raises(ValueError):
                g.neighbor(v, 0)
            assert [g.has_edge(v, w) for w in range(n)] == [w in sets[v] for w in range(n)]
        assert list(g.directed_edges()) == reference_directed(ref)
        assert list(g.undirected_edges()) == reference_undirected(ref)
        assert g.edge_array().tolist() == [list(e) for e in reference_undirected(ref)]


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


@st.composite
def canonical_edge_lists(draw):
    """Distinct pairs u < v in ascending order: the lists ``build_graph`` builds by one merge."""
    n = draw(st.integers(0, 40))
    pairs = list(combinations(range(n), 2))
    return sorted(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []), n


def csr_outcome(build, edges, n):
    """The CSR arrays as lists (from the adjacency for the reference), or the error, message and ``edge`` raised."""
    try:
        g = build(edges, n)
    except GraphConstructionError as exc:
        return str(exc), exc.edge
    rows = g if isinstance(g, tuple) else adjacency(g)
    return np.cumsum([0, *map(len, rows)]).tolist(), [w for row in rows for w in row]


@settings(max_examples=200, deadline=None)
@given(canonical_edge_lists(), st.randoms(use_true_random=False))
@example(case=([], 0), rnd=random.Random(0))
@example(case=([], 5), rnd=random.Random(0))
def test_canonical_edge_lists_build_as_reference(case, rnd):
    # Sorted (the merge) or shuffled in random orientation (the general path):
    # the CSR arrays of first appearance either way.
    edges, n = case
    shuffled = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in rnd.sample(edges, len(edges))]
    for source in (edges, shuffled):
        g = build_graph(source, n)
        assert [g.offsets.tolist(), g.targets.tolist()] == list(csr_outcome(reference_build, source, n))
        g.validate()


@settings(max_examples=200, deadline=None)
@given(canonical_edge_lists().filter(lambda case: case[0]), st.sampled_from(["repeat", "loop", "n", "negative"]),
       st.integers(0, 10**6))
@example(case=([(0, 1), (1, 2)], 3), defect="repeat", at=0)
@example(case=([(0, 1), (1, 2)], 3), defect="n", at=0)
@example(case=([(0, 1), (1, 2)], 3), defect="loop", at=0)
@example(case=([(0, 1), (1, 2)], 3), defect="negative", at=0)
def test_a_defect_in_a_canonical_list_raises_as_before(case, defect, at):
    # One defect right after edge i, or first for a negative id, whose key is
    # below every other: the list is often canonical but for the defect, and the
    # error names it as the general path does, index included.
    edges, n = case
    i = at % len(edges)
    u, v = edges[i]
    bad, where = {"repeat": ((u, v), i + 1), "loop": ((v, v), i + 1), "n": ((u, n), i + 1), "negative": ((-1, u), 0)}[defect]
    spliced = [*edges[:where], bad, *edges[where:]]
    message = outcome(reference_build, spliced, n)[1]
    assert csr_outcome(build_graph, spliced, n) == (message, where)


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
    assert adjacency(erdos_renyi(n, p, seed)) == reference_erdos_renyi(n, p, seed)


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
    assert adjacency(clique_union(base, k, seed + 1)) == reference_clique_union(adjacency(base), k, seed + 1)
    assert adjacency(generate(f"clique_union:{spec},{k}", seed)) == reference_clique_union(
        adjacency(base), k, seed + 1
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


# ---------------------------------------------------------------------------
# Input forms: one graph, or one error, whatever form the edges take
# ---------------------------------------------------------------------------


def ids_as(rows, convert):
    """Each id of each tuple row through ``convert``; other rows as they are."""
    return [tuple(map(convert, r)) if isinstance(r, tuple) else r for r in rows]


@st.composite
def misshapen(draw):
    """Edge lists, simple or hostile, with a row of the wrong length or a
    bare id spliced in, or every row cut to one id or grown to three."""
    edges, n = draw(st.one_of(simple_edge_lists(), hostile_edge_lists()))
    kind = draw(st.sampled_from(["none", "short", "long", "scalar", "all short", "all long"]))
    if kind == "all short":
        return [(u,) for u, _ in edges], n
    if kind == "all long":
        return [(u, v, u) for u, v in edges], n
    if kind != "none":
        bad = {"short": (0,), "long": (0, 1, 2), "scalar": draw(st.integers(0, n + 1))}[kind]
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return edges, n


@settings(max_examples=300, deadline=None)
@given(misshapen())
@example(case=([0, 1], 2))  # bare ids: np.fromiter would copy each into both fields
@example(case=([(0, 1), 1], 3))
@example(case=([], 0))
def test_every_input_form_builds_the_same_graph(case):
    edges, n = case
    want = outcome(build_graph, edges, n)
    forms = {
        "list of lists": [list(r) if isinstance(r, tuple) else r for r in edges],
        "tuple of tuples": tuple(edges),
    }
    if all(-(2**63) <= x < 2**63 for r in edges if isinstance(r, tuple) for x in r):
        forms["numpy int64 ids"] = ids_as(edges, np.int64)
        forms["numpy int32 ids"] = ids_as(edges, lambda x: np.int32(x) if -(2**31) <= x < 2**31 else x)
        forms["bool ids"] = ids_as(edges, lambda x: bool(x) if x in (0, 1) else x)
        forms["numpy bool ids"] = ids_as(edges, lambda x: np.bool_(x) if x in (0, 1) else x)
        if all(isinstance(r, tuple) and len(r) == 2 for r in edges):
            forms["(k, 2) array"] = np.array(edges, dtype=np.int64).reshape(-1, 2)
    for name, form in forms.items():
        assert outcome(build_graph, form, n) == want, name


def test_misshapen_rows_keep_their_errors():
    cases = [
        ([(1,), (2,)], 3, GraphConstructionError, "edges must be (u, v) pairs, got an array of shape (2, 1)"),
        ([(0, 1, 2)], 3, GraphConstructionError, "edges must be (u, v) pairs, got an array of shape (1, 3)"),
        ([0, 1], 2, GraphConstructionError, "edges must be (u, v) pairs, got an array of shape (2,)"),
    ]
    for edges, n, kind, message in cases:
        for form in (edges, [list(r) if isinstance(r, tuple) else r for r in edges]):
            assert outcome(build_graph, form, n) == (kind, message)
    for ragged in ([(0, 1), (1, 2, 0)], [(0, 1), 2], [(0, 1), (2,)]):
        with pytest.raises(ValueError) as numpy_error:
            np.asarray(ragged, dtype=np.int64)
        assert "inhomogeneous" in str(numpy_error.value)
        assert outcome(build_graph, ragged, 3) == (ValueError, str(numpy_error.value))


# ---------------------------------------------------------------------------
# Edge-list files: the same graph, or the same error at the same line
# ---------------------------------------------------------------------------


def reference_read(path):
    """The parser before the two-token fast path, remembering each edge's
    line so that an edge ``build_graph`` refuses is named where it stands."""
    edges, lines, n, lineno = [], [], None, 0
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if parts[0] == "n":
                    if len(parts) != 2:
                        raise GraphConstructionError(f"{path}:{lineno}: malformed header {line!r}")
                    if n is not None:
                        raise GraphConstructionError(f"{path}:{lineno}: second 'n' header {line!r}")
                    n = int(parts[1])
                    continue
                if len(parts) != 2:
                    raise GraphConstructionError(f"{path}:{lineno}: expected 'u v', got {line!r}")
                edges.append((int(parts[0]), int(parts[1])))
                lines.append(lineno)
        except GraphConstructionError:
            raise
        except ValueError as exc:
            raise GraphConstructionError(f"{path}:{lineno}: {exc}") from exc
    named = "header names" if n is not None else "ids name"
    if n is None:
        n = max((max(u, v) for u, v in edges), default=-1) + 1
    if MAX_VERTICES >= n > 2 * len(edges) + HEADER_SLACK:
        raise GraphConstructionError(f"{path}: {named} {n} vertices, over 2 x {len(edges)} edges + {HEADER_SLACK}")
    if n < 0:
        raise GraphConstructionError(f"{path}: vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise GraphConstructionError(f"{path}: vertex count {n} exceeds the supported maximum {MAX_VERTICES}")
    seen = set()
    for (u, v), lineno in zip(edges, lines):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphConstructionError(f"{path}:{lineno}: edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphConstructionError(f"{path}:{lineno}: self-loop ({u}, {v})")
        if (min(u, v), max(u, v)) in seen:
            raise GraphConstructionError(f"{path}:{lineno}: duplicate edge ({u}, {v})")
        seen.add((min(u, v), max(u, v)))
    return reference_build(edges, n)


SMALL_IDS = st.integers(-1, 7).map(str)
ANY_IDS = st.one_of(SMALL_IDS, st.sampled_from(["99999999999999999999999", "x", "nan", "1_0", "+3"]))
QUIET_LINES = ["", "   ", "# a comment", "#1 2", "  # 3 4", "n 6", "n 12"]
ODD_LINES = ["n -3", "n", "n 1 2", "n1 2", "1 2 3", "7", "n 99999999999999999999"]


@st.composite
def edge_list_texts(draw):
    """Edge-list text: edges of small ids among comments, blank lines and
    headers, or, in half the files, odd tokens and malformed lines too."""
    odd = draw(st.booleans())
    ids = ANY_IDS if odd else SMALL_IDS
    edge = st.tuples(ids, ids, st.sampled_from([" ", "\t", "  "])).map(lambda t: f"{t[0]}{t[2]}{t[1]}")
    other = st.sampled_from(QUIET_LINES + ODD_LINES if odd else QUIET_LINES)
    lines = draw(st.lists(st.one_of(edge, edge, edge, other.map(lambda line: f" {line}" if line else line)), max_size=14))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(edge_list_texts())
@example(text="n 4\n# c\n0 1\n\n1 2\n1 0\n")  # a duplicate on line 6, past three edgeless lines
def test_read_edge_list_matches_reference(tmp_path_factory, text):
    target = tmp_path_factory.mktemp("edges") / "g.edges"
    target.write_bytes(text.encode())
    assert outcome(read_edge_list, str(target)) == outcome(reference_read, str(target))
