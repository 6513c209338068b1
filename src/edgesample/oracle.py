"""Metered query access to a graph: the only path samplers may use.

Four query types, each bumping its own counter exactly once per call:

1. ``random_vertex()``: a uniformly random vertex id.
2. ``degree(v)``: d(v).
3. ``neighbor(v, i)``: the i-th neighbor of v (1-based), or None when
   i > d(v). The None is a legitimate answer, not an error.
4. ``pair(v, w)``: whether (v, w) is an edge. Provided for the
   budget-vs-accuracy experiments; the sampler itself never calls it.

The vertex count ``n`` is public knowledge and free. An out-of-range id
is a programmer error (IndexError, uncharged), not a query failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

import numpy as np

from .graph import Graph


class BudgetExceeded(RuntimeError):
    """A query was attempted past the oracle's hard query budget."""


@dataclass(slots=True)
class QueryCounts:
    """Per-type query counters; merged across workers by addition.

    ``total``, ``+``, ``-`` and ``copy`` name each field, twice as fast as a
    ``map`` over the field list; a test checks them against that list.
    """

    vertex: int = 0
    degree: int = 0
    neighbor: int = 0
    pair: int = 0

    @property
    def total(self) -> int:
        return self.vertex + self.degree + self.neighbor + self.pair

    def __add__(self, o: "QueryCounts") -> "QueryCounts":
        return QueryCounts(self.vertex + o.vertex, self.degree + o.degree, self.neighbor + o.neighbor, self.pair + o.pair)

    def __sub__(self, o: "QueryCounts") -> "QueryCounts":
        return QueryCounts(self.vertex - o.vertex, self.degree - o.degree, self.neighbor - o.neighbor, self.pair - o.pair)

    def copy(self) -> "QueryCounts":
        return QueryCounts(self.vertex, self.degree, self.neighbor, self.pair)

    def as_dict(self) -> dict[str, int]:
        counts = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**counts, "total": sum(counts.values())}


class QueryOracle:
    """Single-stream metered facade over an immutable graph.

    All randomness of a run (vertex queries plus any sampler coins drawn
    from ``oracle.rng``) comes from one seeded ``random.Random``, so a run
    replays bit-for-bit under the same seed; a ``random.Random`` given as
    ``seed`` is ``oracle.rng`` itself, so oracles built on one generator
    draw one stream in turn. ``budget``, when set, is a hard cap on the
    total query count: the call that would exceed it raises
    BudgetExceeded before touching the graph.

    Each query checks the budget and bumps its own counter inline: a helper
    would add a Python frame to every query. ``random_vertex`` draws by the
    same ``getrandbits`` rejection as ``Random.randrange(n)``, with ``n`` and
    its bit length cached, so it returns the same vertex from the same
    generator state.

    The bulk paths may bypass the four methods; ``bulk_graph`` says when.
    Everything else goes through the methods.
    """

    def __init__(self, graph, seed: int | random.Random | None = None, budget: int | None = None):
        self.graph = graph
        self.rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        self.counts = QueryCounts()
        self.budget = budget
        self._n = graph.n
        self._n_bits = graph.n.bit_length()
        self._gen = None  # the numpy paths' generator, built on first use

    def _generator(self, rng: random.Random) -> np.random.Generator:
        """The oracle's PCG64 generator, its state set from 256 bits of ``rng``."""
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(0))
        state = {"state": rng.getrandbits(128), "inc": rng.getrandbits(128) | 1}
        self._gen.bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        return self._gen

    @property
    def n(self) -> int:
        return self._n

    def random_vertex(self) -> int:
        c = self.counts
        if self.budget is not None and c.vertex + c.degree + c.neighbor + c.pair >= self.budget:
            raise BudgetExceeded(f"query budget {self.budget} exhausted")
        c.vertex += 1
        n = self._n
        if not n:
            raise ValueError("empty range for randrange()")
        r = self.rng.getrandbits(self._n_bits)
        while r >= n:
            r = self.rng.getrandbits(self._n_bits)
        return r

    def degree(self, v: int) -> int:
        c = self.counts
        if self.budget is not None and c.vertex + c.degree + c.neighbor + c.pair >= self.budget:
            raise BudgetExceeded(f"query budget {self.budget} exhausted")
        d = self.graph.degree(v)
        c.degree += 1
        return d

    def neighbor(self, v: int, i: int) -> int | None:
        if i < 1:  # refused before the graph sees v, so a view reveals and marks nothing
            raise ValueError(f"neighbor index must be >= 1, got {i}")
        c = self.counts
        if self.budget is not None and c.vertex + c.degree + c.neighbor + c.pair >= self.budget:
            raise BudgetExceeded(f"query budget {self.budget} exhausted")
        w = self.graph.neighbor(v, i)
        c.neighbor += 1
        return w

    def pair(self, v: int, w: int) -> bool:
        for x in (v, w):  # has_edge answers False for an id out of range
            if not 0 <= x < self._n:
                raise IndexError(f"vertex {x} out of range for n={self._n}")
        c = self.counts
        if self.budget is not None and c.vertex + c.degree + c.neighbor + c.pair >= self.budget:
            raise BudgetExceeded(f"query budget {self.budget} exhausted")
        c.pair += 1
        return self.graph.has_edge(v, w)


def bulk_graph(oracle: QueryOracle) -> Graph | None:
    """The CSR graph the bulk paths may read directly, charging in bulk.

    The bulk paths (``sampler._kernel``, ``sampler._walk`` and the
    degree-sum estimate) read the CSR arrays and add to ``oracle.counts``
    once per call exactly what the method loop would charge. The numpy ones
    draw from ``oracle._generator(rng)``, the walk from ``rng`` itself: other
    streams from one seed, with the same law of outcomes and query counts.
    Only a plain ``QueryOracle`` (no subclass, whose methods may observe each
    query) without a budget (so ``BudgetExceeded`` fires at the same query)
    over a nonempty ``Graph`` (not a view) qualifies; otherwise None, and
    every query goes through the oracle's methods.
    """
    if type(oracle) is QueryOracle and oracle.budget is None and type(oracle.graph) is Graph and oracle._n:
        return oracle.graph
    return None
