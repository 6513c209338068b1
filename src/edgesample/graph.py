"""Immutable CSR graphs and edge-list I/O.

Vertices are dense integer ids 0..n-1. Every undirected edge {u, v} is
accounted for as the two directed edges (u, v) and (v, u), so the directed
edge count ``m_dir`` equals the degree sum. Each vertex keeps its neighbors
in a fixed order (first appearance in the input edge list), which is what
makes "the i-th neighbor of v" a well-defined query.

Layout (compressed sparse row): ``offsets`` has n + 1 entries and
``targets`` has m_dir; the neighbors of v, in their fixed order, are
``targets[offsets[v]:offsets[v + 1]]``. Both are read-only int64 arrays,
and every bulk operation (construction, validation, edge listing) works
on them with numpy.

Each graph also keeps its degree array ``deg``, ``np.diff(offsets)``, made
once, so no layer works degrees out of ``offsets`` again. The scalar
queries ``degree`` and ``neighbor`` are the samplers' hot path. They index
``memoryview``s of these read-only buffers, not copies: a memoryview read
returns a Python ``int`` (a numpy index would return a numpy scalar).
"""

from __future__ import annotations

import io
import math
import random
from contextlib import suppress
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class GraphConstructionError(ValueError):
    """Raised when an edge list violates the simple-undirected contract; ``edge`` is the culprit's input index."""

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


MAX_VERTICES = math.isqrt(2**63 - 1)  # the edge keys u * n + v must fit in int64
HEADER_SLACK = 2**20  # isolated vertices an edge list may name beyond its edges' endpoints
SHORT_ROW = 64  # has_edge scans rows up to this long in Python, under numpy's ~3 us fixed cost per call


class DirectedEdge(NamedTuple):
    """Ordered pair (origin, target) with target adjacent to origin."""

    origin: int
    target: int

    def undirected(self) -> tuple[int, int]:
        """The unordered edge as a sorted pair."""
        return (self.origin, self.target) if self.origin <= self.target else (self.target, self.origin)


class Graph:
    """Simple undirected graph in CSR form; immutable after construction.

    Build one with ``build_graph``, which validates the edge list; this
    constructor trusts its arrays.

    Attributes
    ----------
    n : int
        Vertex count; ids are 0..n-1.
    offsets : numpy.ndarray
        int64, length n + 1; v's neighbors occupy ``offsets[v]:offsets[v+1]``.
    targets : numpy.ndarray
        int64, length m_dir; neighbor ids, each vertex's in its fixed order.
    deg : numpy.ndarray
        int64, length n; ``np.diff(offsets)``, made once here (pickling rebuilds it).

    ``_origins()``, every directed edge's origin, serves the walk (through its memoryview ``_f``)
    and the pooled kernel, ``_degree_order()`` the analytic layer: made on first use, kept, not pickled.
    """

    __slots__ = ("n", "offsets", "targets", "deg", "_o", "_t", "_d", "_from", "_f", "_order")

    def __init__(self, offsets: np.ndarray, targets: np.ndarray):
        self.deg = np.diff(offsets)
        offsets.flags.writeable = targets.flags.writeable = self.deg.flags.writeable = False
        self.n = len(offsets) - 1
        self.offsets = offsets
        self.targets = targets
        self._o, self._t, self._d = memoryview(offsets), memoryview(targets), memoryview(self.deg)
        self._from = self._f = self._order = None

    def __reduce__(self):
        return Graph, (self.offsets, self.targets)

    @property
    def m_dir(self) -> int:
        """Directed edge count: the degree sum (twice the undirected count)."""
        return len(self._t)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:  # a memoryview would wrap a negative id
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        return self._d[v]

    def degrees(self) -> list[int]:
        return self._d.tolist()

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        o = self._o
        return tuple(self._t[o[v]:o[v + 1]])

    def neighbor(self, v: int, i: int) -> int | None:
        """The i-th neighbor of v (1-based); None when i exceeds d(v)."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        if i > self._d[v]:
            return None
        if i < 1:
            raise ValueError(f"neighbor index must be >= 1, got {i}")
        return self._t[self._o[v] + i - 1]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether {u, v} is an edge; False for ids outside 0..n-1.

        Scans the shorter of the two neighbor rows: in Python up to
        ``SHORT_ROW`` entries, below numpy's fixed cost per call, else in numpy.
        """
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            return False
        o = self._o
        a, b, c, d = o[u], o[u + 1], o[v], o[v + 1]
        if b - a > d - c:
            a, b, v = c, d, u
        return v in self._t[a:b] if b - a <= SHORT_ROW else bool((self.targets[a:b] == v).any())

    def _origins(self) -> np.ndarray:
        """The origin of every directed edge, aligned with ``targets``: read-only, made once with ``_f``."""
        if self._from is None:
            self._from = np.repeat(np.arange(self.n, dtype=np.int64), self.deg)
            self._from.flags.writeable = False
            self._f = memoryview(self._from)
        return self._from

    def _degree_order(self) -> tuple[memoryview, ...]:
        """Read-only memoryviews, made once: the ids by ascending degree (a stable argsort), those
        degrees, their n + 1 prefix sums, and each row's neighbor degrees in ascending order."""
        if self._order is None:
            ids, width = np.argsort(self.deg, kind="stable"), int(self.deg.max(initial=0)) + 1
            rows = np.sort(np.repeat(np.arange(self.n) * width, self.deg) + self.deg[self.targets]) % width
            degs = self.deg[ids]
            self._order = tuple(memoryview(a).toreadonly() for a in (ids, degs, np.append(0, np.cumsum(degs)), rows))
        return self._order

    def directed_edges(self) -> Iterable[DirectedEdge]:
        return map(DirectedEdge, self._origins().tolist(), self._t)

    def edge_array(self) -> np.ndarray:
        """The undirected edges (u, v), u < v, as a (m, 2) int64 array in
        ``undirected_edges`` order."""
        origins = self._origins()
        keep = origins < self.targets
        return np.column_stack([origins[keep], self.targets[keep]])

    def undirected_edges(self) -> Iterable[tuple[int, int]]:
        return map(tuple, self.edge_array().tolist())

    def validate(self) -> None:
        """Check the CSR and simple-undirected invariants; raises on violation."""
        o, t, n = self.offsets, self.targets, self.n
        if n < 0 or o[0] != 0 or o[-1] != len(t) or np.any(self.deg < 0):
            raise GraphConstructionError("offsets are not a CSR offset array")
        origins = self._origins()
        bad = np.flatnonzero((t < 0) | (t >= n))
        if bad.size:
            raise GraphConstructionError(f"neighbor {t[bad[0]]} of {origins[bad[0]]} out of range")
        loops = np.flatnonzero(origins == t)
        if loops.size:
            raise GraphConstructionError(f"self-loop at vertex {origins[loops[0]]}")
        keys = np.sort(origins * n + t)
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            raise GraphConstructionError(f"duplicate neighbor in adjacency of {keys[repeated[0]] // n}")
        reverse = np.sort(t * n + origins)
        asym = np.flatnonzero(keys != reverse)
        if asym.size:
            u, v = divmod(int(reverse[asym[0]]), n)
            raise GraphConstructionError(f"asymmetric edge ({v}, {u})")


def build_graph(edge_list: Sequence[tuple[int, int]] | np.ndarray, n: int) -> Graph:
    """Build a Graph from undirected edge pairs (a list of pairs or a (k, 2) int array).

    Neighbor order is first-appearance order in ``edge_list``. Self-loops,
    duplicate edges (either orientation), and out-of-range ids are rejected;
    the error names the first offending edge in input order, its index in
    ``edge``. ``n`` may not exceed ``MAX_VERTICES``. A list or tuple of 2-tuples
    crosses into int64 in one ``np.fromiter`` pass, anything else by ``np.asarray``.
    A canonical list, every row u < v in range and the pairs strictly increasing
    (as ``erdos_renyi`` makes them), needs no other check and builds by one merge.
    """
    if n < 0:
        raise GraphConstructionError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise GraphConstructionError(f"vertex count {n} exceeds the supported maximum {MAX_VERTICES}")
    e = None  # np.asarray below takes what np.fromiter refuses, and a bare id, which it copies into both fields
    if isinstance(edge_list, (list, tuple)):
        with suppress(TypeError, ValueError, OverflowError):  # rows that are not 2-tuples, ids beyond int64
            e = np.fromiter(edge_list, [("u", np.int64), ("v", np.int64)], len(edge_list)).view(np.int64).reshape(-1, 2)
            e = None if (e[:, 0] == e[:, 1]).any() and set(map(type, edge_list)) != {tuple} else e
    try:
        shown = e = np.asarray(edge_list, dtype=np.int64) if e is None else e
    except OverflowError:  # an id beyond int64 is out of range: clamp it, report the original
        shown = np.array(edge_list, dtype=object)
        e = np.where((shown < 0) | (shown >= n), -1, shown).astype(np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    elif e.ndim != 2 or e.shape[1] != 2:
        raise GraphConstructionError(f"edges must be (u, v) pairs, got an array of shape {e.shape}")
    u, v = e[:, 0], e[:, 1]
    keys = np.minimum(u, v) * n + np.maximum(u, v)  # the edge's sorted pair, as one int
    if len(e) and u.min() >= 0 and v.max() < n and (u < v).all() and (keys[1:] > keys[:-1]).all():
        # Canonical: u < v rules out loops, increasing keys rule out repeats. Each vertex meets its
        # neighbors in ascending order, so its row is sorted, and the CSR is the sorted directed
        # keys: the forward run (keys) merged with the sorted reverse run.
        targets = np.sort(np.concatenate([keys, np.sort(v * n + u)]), kind="stable") % n
    else:
        out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        loop = u == v
        ranked = np.sort(keys)
        if out_of_range.any() or loop.any() or np.any(ranked[1:] == ranked[:-1]):
            # Name the first bad edge in input order. A key made from an
            # out-of-range id is garbage, but can only mislabel later edges.
            order = np.argsort(keys, kind="stable")
            repeat = np.zeros(len(e), dtype=bool)
            repeat[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True  # all but the first occurrence
            i = int(np.flatnonzero(out_of_range | loop | repeat)[0])
            a, b = shown[i].tolist()
            if out_of_range[i]:
                raise GraphConstructionError(f"edge ({a}, {b}) out of range for n={n}", i)
            raise GraphConstructionError(f"self-loop ({a}, {b})" if loop[i] else f"duplicate edge ({a}, {b})", i)
        del keys, ranked, out_of_range, loop  # freed before the build's arrays of 2k, which lowers its peak
        # Directed edge 2i is u -> v of input edge i and 2i + 1 is v -> u. Sorting
        # origin * 2k + position groups them by origin and keeps input order
        # within a group (a stable sort, but several times faster than a stable
        # argsort); n * 2k < MAX_VERTICES**2 for any edge list that fits in memory.
        width = 2 * len(e)
        targets = e[:, ::-1].ravel()[np.sort(e.ravel() * width + np.arange(width)) % width]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(e.ravel(), minlength=n), out=offsets[1:])
    return Graph(offsets, targets)


class RelabeledView:
    """Graph view under a vertex-id permutation, without copying the graph.

    Answers Graph's queries with Python ints, in the base's neighbor order.
    ``old(v)`` and ``new(w)`` map ids each way through two dicts, filled from
    ``perm`` (``perm[old] = new``) or, given a ``random.Random``, drawn
    lazily: an id's first use draws its partner uniformly among the ids not
    yet revealed. Given what is revealed, that is a uniform permutation.

    It also flags a witness of ``marked``, a container of old ids (default
    empty): ``witnessed`` is set by a ``degree`` or ``neighbor`` query on a
    marked id, or a ``has_edge`` on two distinct marked ids. A vertex query
    returning a marked id is no witness, nor is a query the budget refuses:
    an oracle calls one of these methods per query, past its budget check.
    """

    def __init__(self, base: Graph, perm: Sequence[int] | np.ndarray | random.Random):
        self._base, self.n, self.m_dir = base, base.n, base.m_dir
        self._o, self._t, self._d, self._bits = base._o, base._t, base._d, base.n.bit_length()
        self._rng, self._old, self._new = perm, {}, {}
        self.marked, self.witnessed = (), False  # marked: a Container[int]
        if not isinstance(perm, random.Random):
            new = np.asarray(perm, dtype=np.int64).tolist()
            if sorted(new) != list(range(base.n)):
                raise ValueError(f"perm of length {len(new)} is not a permutation of 0..{base.n - 1}")
            self._new, self._old = dict(enumerate(new)), dict(zip(new, range(base.n)))

    def _reveal(self, x: int, known: dict[int, int], other: dict[int, int]) -> int:
        """Draw the partner of ``x``, which is not in ``known`` (the callers look first)."""
        n = y = self.n
        if not 0 <= x < n:
            raise IndexError(f"vertex {x} out of range for n={n}")
        while y >= n or y in other:  # getrandbits rejection, skipping revealed ids
            y = self._rng.getrandbits(self._bits)
        known[x], other[y] = y, x
        return y

    def old(self, v: int) -> int:
        x = self._old.get(v)
        return self._reveal(v, self._old, self._new) if x is None else x

    def new(self, w: int) -> int:
        y = self._new.get(w)
        return self._reveal(w, self._new, self._old) if y is None else y

    def degree(self, v: int) -> int:
        x = self._old.get(v)
        if x is None:
            x = self._reveal(v, self._old, self._new)
        if x in self.marked:
            self.witnessed = True
        return self._d[x]

    def neighbor(self, v: int, i: int) -> int | None:
        x = self._old.get(v)
        if x is None:
            x = self._reveal(v, self._old, self._new)
        if x in self.marked:
            self.witnessed = True
        if i > self._d[x]:
            return None
        if i < 1:
            raise ValueError(f"neighbor index must be >= 1, got {i}")
        w = self._t[self._o[x] + i - 1]
        y = self._new.get(w)
        return self._reveal(w, self._new, self._old) if y is None else y

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(map(self.new, self._base.neighbors(self.old(v))))

    def has_edge(self, u: int, v: int) -> bool:
        x, y = self.old(u), self.old(v)
        if u != v and x in self.marked and y in self.marked:
            self.witnessed = True
        return self._base.has_edge(x, y)


def read_edge_list(path: str) -> Graph:
    """Read a graph from edge-list text.

    One ``u v`` pair per line (whitespace-separated decimal ids); lines
    starting with ``#`` are ignored; an optional ``n <count>`` header fixes
    the vertex count (default: max id + 1) and may name at most 2 k +
    ``HEADER_SLACK`` vertices for k edges, so that a short file cannot ask
    for gigabytes; without a header the same bound applies to max id + 1.
    Malformed text or a refused edge raises GraphConstructionError naming the file and line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    edges, skipped = [], []  # the (u, v) pairs, and the lines that hold none (ascending)
    n: int | None = None
    try:
        for lineno, raw in enumerate(io.StringIO(data.decode("utf-8"), newline=None), start=1):
            parts = raw.split()
            if len(parts) == 2 and parts[0] != "n" and parts[0][0] != "#":  # an edge: the common case first
                edges.append((int(parts[0]), int(parts[1])))
                continue
            skipped.append(lineno)
            if not parts or parts[0][0] == "#":
                continue
            if parts[0] != "n":
                raise GraphConstructionError(f"{path}:{lineno}: expected 'u v', got {raw.strip()!r}")
            if len(parts) != 2:
                raise GraphConstructionError(f"{path}:{lineno}: malformed header {raw.strip()!r}")
            if n is not None:
                raise GraphConstructionError(f"{path}:{lineno}: second 'n' header {raw.strip()!r}")
            n = int(parts[1])
    except GraphConstructionError:
        raise
    except ValueError as exc:  # a non-integer token, or a byte that is not UTF-8
        if isinstance(exc, UnicodeDecodeError):  # the bad byte's line; \n, \r\n and \r end lines, as in text mode
            lineno = len((data[:exc.start] + b".").splitlines())
        raise GraphConstructionError(f"{path}:{lineno}: {exc}") from exc
    named = "header names" if n is not None else "ids name"
    n = max(map(max, edges), default=-1) + 1 if n is None else n
    if MAX_VERTICES >= n > 2 * len(edges) + HEADER_SLACK:  # build_graph refuses larger n first thing
        raise GraphConstructionError(f"{path}: {named} {n} vertices, over 2 x {len(edges)} edges + {HEADER_SLACK}")
    try:
        return build_graph(edges, n)
    except GraphConstructionError as exc:  # name the culprit's line: the (edge + 1)-th that holds an edge
        where = path if exc.edge is None else f"{path}:{np.setdiff1d(np.arange(1, lineno + 1), skipped)[exc.edge]}"
        raise GraphConstructionError(f"{where}: {exc}") from exc


def write_edge_list(g: Graph, path: str) -> None:
    """Write a graph in the edge-list text format with an ``n`` header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {g.n}\n")
        fh.writelines(f"{u} {v}\n" for u, v in g.undirected_edges())
