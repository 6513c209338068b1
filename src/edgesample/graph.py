"""Immutable adjacency-list graphs with a light/heavy degree partition.

Vertices are dense integer ids 0..n-1. Every undirected edge {u, v} is
accounted for as the two directed edges (u, v) and (v, u), so the directed
edge count ``m_dir`` equals the degree sum. Each vertex keeps its neighbors
in a fixed order (first appearance in the input edge list), which is what
makes "the i-th neighbor of v" a well-defined query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class GraphConstructionError(ValueError):
    """Raised when an edge list violates the simple-undirected contract."""


class DirectedEdge(NamedTuple):
    """Ordered pair (origin, target) with target adjacent to origin."""

    origin: int
    target: int

    def reversed(self) -> DirectedEdge:
        return DirectedEdge(self.target, self.origin)

    def undirected(self) -> tuple[int, int]:
        """The unordered edge as a sorted pair."""
        return (self.origin, self.target) if self.origin <= self.target else (self.target, self.origin)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; immutable after construction.

    Attributes
    ----------
    n : int
        Vertex count; ids are 0..n-1.
    adjacency : tuple[tuple[int, ...], ...]
        Per-vertex neighbor tuple in fixed order.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def m_dir(self) -> int:
        """Directed edge count: the degree sum (twice the undirected count)."""
        return self._m_dir

    def __post_init__(self):
        object.__setattr__(self, "_m_dir", sum(len(a) for a in self.adjacency))
        object.__setattr__(self, "_neighbor_sets", tuple(frozenset(a) for a in self.adjacency))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adjacency]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def neighbor(self, v: int, i: int) -> int | None:
        """The i-th neighbor of v (1-based); None when i exceeds d(v)."""
        if i < 1:
            raise ValueError(f"neighbor index must be >= 1, got {i}")
        if i > len(self.adjacency[v]):
            return None
        return self.adjacency[v][i - 1]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._neighbor_sets[u]

    def directed_edges(self) -> Iterable[DirectedEdge]:
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                yield DirectedEdge(u, v)

    def undirected_edges(self) -> Iterable[tuple[int, int]]:
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def validate(self) -> None:
        """Check the simple-undirected invariants; raises on violation."""
        for u, nbrs in enumerate(self.adjacency):
            if u in self._neighbor_sets[u]:
                raise GraphConstructionError(f"self-loop at vertex {u}")
            if len(nbrs) != len(self._neighbor_sets[u]):
                raise GraphConstructionError(f"duplicate neighbor in adjacency of {u}")
            for v in nbrs:
                if not 0 <= v < self.n:
                    raise GraphConstructionError(f"neighbor {v} of {u} out of range")
                if u not in self._neighbor_sets[v]:
                    raise GraphConstructionError(f"asymmetric edge ({u}, {v})")


def build_graph(edge_list: Sequence[tuple[int, int]], n: int) -> Graph:
    """Build a Graph from undirected edge pairs.

    Neighbor order is first-appearance order in ``edge_list``. Self-loops,
    duplicate edges (either orientation), and out-of-range ids are rejected.
    """
    if n < 0:
        raise GraphConstructionError(f"vertex count must be nonnegative, got {n}")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
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
    return Graph(n=n, adjacency=tuple(tuple(a) for a in adjacency))


@dataclass(frozen=True)
class DegreePartition:
    """Vertices split by the degree threshold theta.

    A vertex is light when d(v) <= theta, heavy otherwise; a directed edge
    inherits the label of its origin. e_light + e_heavy = m_dir.
    """

    theta: int
    light_vertices: frozenset[int]
    heavy_vertices: frozenset[int]
    e_light: int
    e_heavy: int

    def is_light(self, v: int) -> bool:
        return v in self.light_vertices


def partition(g: Graph, theta: int) -> DegreePartition:
    """Split vertices into light (d <= theta) and heavy (d > theta)."""
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    light: set[int] = set()
    heavy: set[int] = set()
    e_light = 0
    for v in range(g.n):
        d = g.degree(v)
        if d <= theta:
            light.add(v)
            e_light += d
        else:
            heavy.add(v)
    return DegreePartition(
        theta=theta,
        light_vertices=frozenset(light),
        heavy_vertices=frozenset(heavy),
        e_light=e_light,
        e_heavy=g.m_dir - e_light,
    )


def light_degree(g: Graph, p: DegreePartition, v: int) -> int:
    """Number of light neighbors of v under partition p."""
    return sum(1 for w in g.neighbors(v) if g.degree(w) <= p.theta)


class RelabeledView:
    """Graph view under a vertex-id permutation, without copying.

    ``perm[old] = new``. Answers the same queries as Graph; the fixed
    neighbor order of a relabeled vertex is the relabeling of the base
    vertex's order, which is a legitimate fixed order.
    """

    def __init__(self, base: Graph, perm: Sequence[int]):
        if len(perm) != base.n:
            raise ValueError(f"permutation length {len(perm)} != n={base.n}")
        self._base = base
        self._perm = perm
        inv = np.empty(base.n, dtype=np.int64)
        inv[np.asarray(perm)] = np.arange(base.n)
        self._inv = inv.tolist()

    @property
    def n(self) -> int:
        return self._base.n

    @property
    def m_dir(self) -> int:
        return self._base.m_dir

    def degree(self, v: int) -> int:
        return self._base.degree(self._inv[v])

    def neighbor(self, v: int, i: int) -> int | None:
        w = self._base.neighbor(self._inv[v], i)
        return None if w is None else self._perm[w]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._perm[w] for w in self._base.neighbors(self._inv[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return self._base.has_edge(self._inv[u], self._inv[v])


def read_edge_list(path: str) -> Graph:
    """Read a graph from edge-list text.

    One ``u v`` pair per line (whitespace-separated decimal ids); lines
    starting with ``#`` are ignored; an optional ``n <count>`` header fixes
    the vertex count (default: max id + 1). Malformed text raises
    GraphConstructionError naming the file and line.
    """
    edges: list[tuple[int, int]] = []
    n: int | None = None
    lineno = 0
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
                    n = int(parts[1])
                    continue
                if len(parts) != 2:
                    raise GraphConstructionError(f"{path}:{lineno}: expected 'u v', got {line!r}")
                edges.append((int(parts[0]), int(parts[1])))
        except GraphConstructionError:
            raise
        except ValueError as exc:  # a non-integer token, or text that is not UTF-8
            raise GraphConstructionError(f"{path}:{lineno}: {exc}") from exc
    if n is None:
        n = max((max(u, v) for u, v in edges), default=-1) + 1
    return build_graph(edges, n)


def write_edge_list(g: Graph, path: str) -> None:
    """Write a graph in the edge-list text format with an ``n`` header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {g.n}\n")
        for u, v in g.undirected_edges():
            fh.write(f"{u} {v}\n")
