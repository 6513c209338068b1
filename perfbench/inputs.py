"""Seeded workload inputs and the exact reference values they imply.

The *hubs* graph is an Erdos-Renyi base plus ``h`` hubs that form a
clique, each hub with ``L`` private leaves, and the whole edge list
shuffled. With ``L`` large the hubs stay heavy (degree above theta) even
when the edge estimate doubles m, so the sampler's heavy track does real
work; and because the hubs are adjacent, each hub has heavy neighbours,
so the analytic heavy-edge factor is below 1 and ``max_ratio_dev > 0``.

Every reference value here is computed from the benchmark's own edge
list with integer arithmetic, never by calling the library.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def subseed(seed: int, *tags: int) -> int:
    """A 63-bit seed derived from the workload seed and integer tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(2, np.uint64)[0] >> np.uint64(1))


def hubs_edge_list(base_edges, base_n: int, hubs: int, leaves: int, seed: int):
    """Base edges plus a hub clique with private leaves, in seeded random order.

    Returns ``(edges, n)``: a list of ``(u, v)`` int pairs and the vertex count.
    """
    edges = list(base_edges)
    edges += [(base_n + i, base_n + j) for i in range(hubs) for j in range(i + 1, hubs)]
    first_leaf = base_n + hubs
    for i in range(hubs):
        edges += [(base_n + i, first_leaf + i * leaves + k) for k in range(leaves)]
    order = np.random.default_rng(subseed(seed, 1)).permutation(len(edges))
    return [edges[i] for i in order.tolist()], first_leaf + hubs * leaves


class DegreeTable:
    """Degrees and directed edges of an undirected edge list, as numpy arrays."""

    def __init__(self, edges, n: int):
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.n = n
        self.src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        self.dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        self.deg = np.bincount(self.src, minlength=n)
        self.m = int(self.deg.sum())
        self._keys = np.sort(self.src * n + self.dst)
        self._sorted_deg = np.sort(self.deg)
        self._deg_prefix = np.concatenate([[0], np.cumsum(self._sorted_deg)])
        self._cache: dict[int, tuple[int, int, dict[int, int]]] = {}

    def has_edges(self, origins, targets) -> np.ndarray:
        """Whether each (origin, target) pair is a directed edge."""
        keys = np.asarray(origins, dtype=np.int64) * self.n + np.asarray(targets, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return self._keys[pos] == keys

    def split(self, theta: int) -> tuple[int, int, dict[int, int]]:
        """``(e_light, sum of d_L over heavy vertices, {heavy v: d_L(v)})`` at theta."""
        if theta not in self._cache:
            k = int(np.searchsorted(self._sorted_deg, theta, side="right"))
            e_light = int(self._deg_prefix[k])
            heavy_edge = (self.deg[self.src] > theta) & (self.deg[self.dst] <= theta)
            counts = np.bincount(self.src[heavy_edge], minlength=self.n)
            heavy = np.flatnonzero(self.deg > theta)
            light_deg = {int(v): int(counts[v]) for v in heavy}
            self._cache[theta] = (e_light, sum(light_deg.values()), light_deg)
        return self._cache[theta]

    def attempt_success(self, theta: int) -> Fraction:
        """Exact success probability of one light/heavy mixture attempt."""
        e_light, heavy_light, _ = self.split(theta)
        return Fraction(e_light + heavy_light, 2 * self.n * theta)

    def heavy_share(self, theta: int) -> Fraction:
        """Exact share of successful attempts that return a heavy-origin edge."""
        e_light, heavy_light, _ = self.split(theta)
        return Fraction(heavy_light, e_light + heavy_light)

    def max_ratio_dev(self, theta: int) -> Fraction:
        """Exact max over directed edges of |P(e | success) * m - 1|."""
        e_light, heavy_light, light_deg = self.split(theta)
        w = e_light + heavy_light
        devs = [abs(Fraction(self.m, w) - 1)] if e_light else []
        devs += [abs(Fraction(self.m * dl, int(self.deg[v]) * w) - 1) for v, dl in light_deg.items()]
        return max(devs)

    def run_prediction(self, theta: int, q: int) -> tuple[float, float, float]:
        """``(E[attempts], P(failure), P(success) * heavy share)`` of one run.

        The run makes up to q attempts, so E[attempts] = (1 - (1 - s)^q) / s.
        When q > n it reverts to the uniform-slot fallback, whose attempts
        succeed with probability m / n^2 for up to n attempts.
        """
        if q > self.n:
            s = Fraction(self.m, self.n * self.n)
            q = self.n
            heavy = Fraction(int(self.deg[self.deg > theta].sum()), self.m)
        else:
            s = self.attempt_success(theta)
            heavy = self.heavy_share(theta)
        fail = math.exp(q * math.log1p(-float(s))) if s < 1 else 0.0
        return (1.0 - fail) / float(s), fail, (1.0 - fail) * float(heavy)


def threshold(m: int, epsilon: Fraction) -> int:
    """Smallest theta with theta^2 * epsilon >= 2 m."""
    theta = max(1, math.isqrt(int(2 * m / epsilon)))
    while theta * theta * epsilon < 2 * m:
        theta += 1
    return theta
