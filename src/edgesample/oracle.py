"""Metered query access to a graph: the only path samplers may use.

Four query types, each bumping its own counter exactly once per call:

1. ``random_vertex()``: a uniformly random vertex id.
2. ``degree(v)``: d(v).
3. ``neighbor(v, i)``: the i-th neighbor of v (1-based), or None when
   i > d(v). The None is a legitimate answer, not an error.
4. ``pair(v, w)``: whether (v, w) is an edge. Provided for the
   budget-vs-accuracy experiments; the sampler itself never calls it.

The vertex count ``n`` is public knowledge and free. Out-of-range vertex
ids are programmer errors (IndexError), not query failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph


class BudgetExceeded(RuntimeError):
    """A query was attempted past the oracle's hard query budget."""


@dataclass(slots=True)
class QueryCounts:
    """Per-type query counters; merged across workers by addition."""

    vertex: int = 0
    degree: int = 0
    neighbor: int = 0
    pair: int = 0

    @property
    def total(self) -> int:
        return self.vertex + self.degree + self.neighbor + self.pair

    def __add__(self, other: "QueryCounts") -> "QueryCounts":
        return QueryCounts(
            vertex=self.vertex + other.vertex,
            degree=self.degree + other.degree,
            neighbor=self.neighbor + other.neighbor,
            pair=self.pair + other.pair,
        )

    def __sub__(self, other: "QueryCounts") -> "QueryCounts":
        return QueryCounts(
            vertex=self.vertex - other.vertex,
            degree=self.degree - other.degree,
            neighbor=self.neighbor - other.neighbor,
            pair=self.pair - other.pair,
        )

    def copy(self) -> "QueryCounts":
        return QueryCounts(self.vertex, self.degree, self.neighbor, self.pair)

    def as_dict(self) -> dict[str, int]:
        return {
            "vertex": self.vertex,
            "degree": self.degree,
            "neighbor": self.neighbor,
            "pair": self.pair,
            "total": self.total,
        }


class QueryOracle:
    """Single-stream metered facade over an immutable graph.

    All randomness of a run (vertex queries plus any sampler coins drawn
    from ``oracle.rng``) comes from one seeded ``random.Random``, so a run
    replays bit-for-bit under the same seed. ``budget``, when set, is a
    hard cap on the total query count: the call that would exceed it
    raises BudgetExceeded before touching the graph.

    Each query checks the budget and bumps its counter inline.
    ``random_vertex`` draws by the same ``getrandbits`` rejection as
    ``Random.randrange(n)``, with ``n`` and its bit length cached, so it
    returns the same vertex from the same generator state.

    The two hot loops, ``sampler._attempts`` and the degree-sum estimate,
    bypass the four methods when ``bulk_graph`` returns a graph: then they
    read its CSR lists, draw vertices by the same rejection on ``rng`` and
    add their query counts to ``counts`` once per call. Everything else,
    and those loops on any other oracle, goes through the methods.
    """

    def __init__(self, graph, seed: int | None = None, budget: int | None = None):
        self.graph = graph
        self.rng = random.Random(seed)
        self.counts = QueryCounts()
        self.budget = budget
        self._n = graph.n
        self._n_bits = graph.n.bit_length()

    @property
    def n(self) -> int:
        return self._n

    def _exhausted(self) -> BudgetExceeded:
        return BudgetExceeded(f"query budget {self.budget} exhausted")

    def random_vertex(self) -> int:
        c = self.counts
        if self.budget is not None and c.vertex + c.degree + c.neighbor + c.pair >= self.budget:
            raise self._exhausted()
        c.vertex += 1
        n = self._n
        if not n:
            raise ValueError("empty range for randrange()")
        r = self.rng.getrandbits(self._n_bits)
        while r >= n:
            r = self.rng.getrandbits(self._n_bits)
        return r

    def degree(self, v: int) -> int:
        if not 0 <= v < self._n:
            raise IndexError(f"vertex {v} out of range for n={self._n}")
        c = self.counts
        if self.budget is not None and c.vertex + c.degree + c.neighbor + c.pair >= self.budget:
            raise self._exhausted()
        c.degree += 1
        return self.graph.degree(v)

    def neighbor(self, v: int, i: int) -> int | None:
        if not 0 <= v < self._n:
            raise IndexError(f"vertex {v} out of range for n={self._n}")
        if i < 1:
            raise ValueError(f"neighbor index must be >= 1, got {i}")
        c = self.counts
        if self.budget is not None and c.vertex + c.degree + c.neighbor + c.pair >= self.budget:
            raise self._exhausted()
        c.neighbor += 1
        return self.graph.neighbor(v, i)

    def pair(self, v: int, w: int) -> bool:
        for x in (v, w):
            if not 0 <= x < self._n:
                raise IndexError(f"vertex {x} out of range for n={self._n}")
        c = self.counts
        if self.budget is not None and c.vertex + c.degree + c.neighbor + c.pair >= self.budget:
            raise self._exhausted()
        c.pair += 1
        return self.graph.has_edge(v, w)


def bulk_graph(oracle: QueryOracle) -> Graph | None:
    """The CSR graph a hot loop may read directly, charging queries in bulk.

    Only a plain ``QueryOracle`` (no subclass, whose methods may observe
    each query) without a budget (so ``BudgetExceeded`` fires at the same
    query) over a nonempty ``Graph`` (not a view) qualifies; otherwise
    None, and the caller makes every query through the oracle's methods.
    The random stream and the final counts are the same either way.
    """
    if type(oracle) is QueryOracle and oracle.budget is None and type(oracle.graph) is Graph and oracle._n:
        return oracle.graph
    return None
