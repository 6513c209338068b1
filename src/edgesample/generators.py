"""Deterministic test-graph generators and the ``kind:args`` spec grammar.

Every generator is a pure function of its parameters and seed, and refuses
more than ``MAX_DIRECTED_EDGES`` = 2**27 directed edges before it allocates
anything: ``build_graph`` peaks near 42 bytes a directed edge (tracemalloc on ER
and clique lists), so a build stays near 5.3 GiB. ``path``, ``cycle`` and
``erdos_renyi`` refuse more than ``MAX_DIRECTED_EDGES // 2`` = 2**26 vertices
first too: ``erdos_renyi`` peaks near 40 bytes a vertex even when it draws no
edge (tracemalloc at p = 0), so at most about 2.5 GiB. The check comes before
any draw, so an accepted spec's stream does not depend on it.
The spec-string grammar is shell-friendly: ``path:8``, ``star:5``, ``er:1000,0.05``,
``clique_union:er:1000,0.05,30`` (the value after the last comma is the
clique size; everything before it is the base spec).

``planted_union`` builds a graph plus a disjoint clique; ``clique_union``
relabels it at random, and the hidden-clique experiment lazily per trial.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, build_graph

MAX_DIRECTED_EDGES = 2**27


def path(n: int) -> Graph:
    """Path on n vertices, edges (i, i+1)."""
    if not 1 <= n <= MAX_DIRECTED_EDGES // 2:
        raise ValueError(f"path needs 1 <= n <= {MAX_DIRECTED_EDGES // 2}, got {n}")
    return build_graph(np.column_stack([np.arange(n - 1), np.arange(1, n)]), n)


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if not 3 <= n <= MAX_DIRECTED_EDGES // 2:
        raise ValueError(f"cycle needs 3 <= n <= {MAX_DIRECTED_EDGES // 2}, got {n}")
    return build_graph(np.column_stack([np.arange(n), np.arange(1, n + 1) % n]), n)


def star(leaves: int) -> Graph:
    """Star with center 0 and ids 1..leaves as leaves."""
    if leaves < 1:
        raise ValueError(f"star needs >= 1 leaf, got {leaves}")
    return core_leaves(1, leaves)


def clique(k: int) -> Graph:
    """Complete graph on k vertices."""
    if k < 1:
        raise ValueError(f"clique needs k >= 1, got {k}")
    return core_leaves(k, 0)


def core_leaves(core: int, leaves: int) -> Graph:
    """K_core whose vertex u owns the pendant leaves core + u * leaves + 0..leaves-1."""
    if core < 1 or leaves < 0 or core * (core - 1 + 2 * leaves) > MAX_DIRECTED_EDGES:  # its directed edges
        raise ValueError(f"core_leaves needs core >= 1, leaves >= 0, at most {MAX_DIRECTED_EDGES} directed edges: {core}, {leaves}")
    hubs = np.column_stack([np.repeat(np.arange(core), leaves), np.arange(core, core * (leaves + 1))])
    return build_graph(np.concatenate([np.column_stack(np.triu_indices(core, 1)), hubs]), core * (leaves + 1))


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) random graph, deterministic under seed.

    Sampled as M ~ Binomial(C(n,2), p) followed by a uniform M-subset of the
    pair indices, which is distributed identically to independent Bernoulli
    trials per pair but runs in O(M) rather than O(n^2).
    """
    if not 1 <= n <= MAX_DIRECTED_EDGES // 2:  # refused before any array or draw
        raise ValueError(f"erdos_renyi needs 1 <= n <= {MAX_DIRECTED_EDGES // 2}, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    n_pairs = n * (n - 1) // 2
    m = int(rng.binomial(n_pairs, p)) if n_pairs > 0 else 0
    if 2 * m > MAX_DIRECTED_EDGES:
        raise ValueError(f"erdos_renyi drew {2 * m} directed edges, over {MAX_DIRECTED_EDGES}")
    chosen = _sample_distinct(rng, n_pairs, m)
    # pairs (i, j), i < j, in lexicographic order; starts[i] = index of (i, i+1)
    starts = np.zeros(n, dtype=np.int64)
    if n > 1:
        starts[1:] = np.cumsum(np.arange(n - 1, 0, -1))
    # chosen is sorted, so row i holds the chosen pairs from starts[i] on: n searches, not m
    i = np.repeat(np.arange(n), np.diff(np.searchsorted(chosen, starts), append=len(chosen)))
    j = chosen - starts[i] + i + 1
    return build_graph(np.column_stack([i, j]), n)


def _sample_distinct(rng: np.random.Generator, n_total: int, m: int) -> np.ndarray:
    """m distinct uniform integers from [0, n_total), sorted."""
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if m > n_total:
        raise ValueError(f"cannot draw {m} distinct values from {n_total}")
    if 3 * m >= n_total:
        return np.sort(rng.permutation(n_total)[:m])
    picked = np.empty(0, dtype=np.int64)  # sorted, distinct
    while len(picked) < m:
        batch = rng.integers(0, n_total, size=int(1.2 * (m - len(picked))) + 8)
        # sort and mask rather than np.union1d: its unique() hashes, many times slower here
        merged = np.sort(np.concatenate([picked, batch]))
        picked = merged[np.insert(merged[1:] != merged[:-1], 0, True)]
        if len(picked) > m:  # drop a uniform excess: the draws and the set of permutation(picked)
            picked = np.delete(picked, rng.permutation(len(picked))[: len(picked) - m])
    return picked


def planted_union(base: Graph, k: int) -> tuple[Graph, frozenset[int]]:
    """Disjoint union of base and a k-clique, clique ids last; unshuffled.
    Its CSR arrays are base's, then the clique's rows (ascending)."""
    ids = np.arange(base.n, base.n + k)
    rows = np.broadcast_to(ids, (k, k))[~np.eye(k, dtype=bool)]  # row i is ids without ids[i]
    offsets = np.concatenate([base.offsets, base.m_dir + (k - 1) * np.arange(1, k + 1)])
    return Graph(offsets, np.concatenate([base.targets, rows])), frozenset(ids.tolist())


def clique_union(base: Graph, k: int, seed: int) -> Graph:
    """Disjoint union of ``base`` and a k-clique, with all ids relabeled
    by a uniformly random permutation drawn from ``seed``."""
    if k < 1 or base.m_dir + k * (k - 1) > MAX_DIRECTED_EDGES:
        raise ValueError(f"clique size must be >= 1 with at most {MAX_DIRECTED_EDGES} directed edges in all, got {k}")
    n = base.n + k
    perm = np.random.default_rng(seed).permutation(n)
    return build_graph(perm[planted_union(base, k)[0].edge_array()], n)


def generate(spec: str, seed: int = 0) -> Graph:
    """Build a graph from a ``kind:args`` spec string.

    Kinds: ``path:n``, ``cycle:n``, ``star:leaves``, ``clique:k``, ``core_leaves:h,L``,
    ``er:n,p`` (alias ``erdos_renyi``), and ``clique_union:<base spec>,k``.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    try:
        if kind in ("path", "cycle", "star", "clique"):
            return {"path": path, "cycle": cycle, "star": star, "clique": clique}[kind](int(rest))
        if kind == "core_leaves":
            core, leaves = rest.split(",")
            return core_leaves(int(core), int(leaves))
        if kind in ("er", "erdos_renyi"):
            n_str, p_str = rest.split(",")
            return erdos_renyi(int(n_str), float(p_str), seed)
        if kind == "clique_union":
            base_spec, _, k_str = rest.rpartition(",")
            if not base_spec:
                raise ValueError("clique_union needs a base spec and a clique size")
            base = generate(base_spec, seed)
            return clique_union(base, int(k_str), seed + 1)
    except ValueError as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown generator kind {kind!r} in spec {spec!r}")
