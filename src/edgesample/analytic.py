"""Exact per-edge return probabilities and closeness diagnostics.

Two independent routes to the same distribution keep each other honest:

* ``attempt_distribution`` evaluates the closed form of one mixture
  attempt: a light edge is returned with probability 1/(2 n theta); a
  heavy edge (v, w) with probability d_L(v) / (2 n theta d(v)), where
  d_L(v) counts v's light neighbors.
* ``enumerate_attempt_distribution`` walks the attempt's full sample
  space (coin x start vertex x slot index x neighbor pick) step by step
  and tallies outcome weights into a per-edge dict, which must equal the
  closed form's ``per_edge``.

Both rest on the light/heavy ``partition`` of the vertices at theta, a
boolean mask over the degree array. The closed form depends only on an
edge's origin, so it is held per heavy vertex: d_L comes from one
reduction over the heavy rows of the CSR arrays alone. The directed edges
fall into a few classes keyed by the ratio d_L(v)/d(v) of their origin in
lowest terms (1/1 for a light origin). Success probability, closeness to
uniform and the bound margins are integer sums over those classes, each
over one common denominator, and exact at every graph size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .graph import DirectedEdge, Graph


@dataclass(frozen=True, eq=False)
class DegreePartition:
    """Vertices split by the degree threshold theta.

    A vertex is light when d(v) <= theta, heavy otherwise; a directed edge
    inherits the label of its origin. ``heavy`` is the boolean mask over
    vertex ids. e_light + e_heavy = m_dir.
    """

    theta: int
    heavy: np.ndarray
    e_light: int
    e_heavy: int


def partition(g: Graph, theta: int) -> DegreePartition:
    """Split vertices into light (d <= theta) and heavy (d > theta)."""
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    deg = np.diff(g.offsets)
    heavy = deg > theta
    e_heavy = int(deg[heavy].sum())
    return DegreePartition(theta, heavy, g.m_dir - e_heavy, e_heavy)


def _reduced(a: int, b: int) -> tuple[int, int]:
    return a // math.gcd(a, b), b // math.gcd(a, b)


class ClosedFormDistribution:
    """The closed-form distribution of one mixture attempt, held per origin vertex.

    An edge out of v has probability ``unit * a / b``: unit = 1/(2 n theta),
    and a/b is 1/1 for a light v and d_L(v)/d(v) in lowest terms for a
    heavy v (``heavy`` maps heavy v to the pair (d_L(v), d(v))). ``pairs``
    maps each ratio (a, b) to its directed-edge count; the integer
    ``weight`` is success_prob / unit. ``per_edge`` is derived from these
    when read.
    """

    def __init__(self, g: Graph, part: DegreePartition, heavy: dict[int, tuple[int, int]]):
        self.graph, self.theta, self.partition, self.heavy = g, part.theta, part, heavy
        pairs = {(1, 1): part.e_light}
        for dl, d in heavy.values():
            key = _reduced(dl, d)
            pairs[key] = pairs.get(key, 0) + d
        self.pairs = pairs
        self.weight = part.e_light + sum(dl for dl, _ in heavy.values())
        self.success_prob = Fraction(self.weight, 2 * g.n * part.theta)

    def _expand(self, value: dict[tuple[int, int], Fraction]) -> dict[DirectedEdge, Fraction]:
        """Give every directed edge the value of its origin's ratio pair."""
        g = self.graph
        by_vertex = [value[1, 1]] * g.n
        for v, (dl, d) in self.heavy.items():
            by_vertex[v] = value[_reduced(dl, d)]
        origins = g._origins().tolist()
        return dict(zip(map(DirectedEdge, origins, g._t), map(by_vertex.__getitem__, origins)))

    @cached_property
    def per_edge(self) -> dict[DirectedEdge, Fraction]:
        unit = Fraction(1, 2 * self.graph.n * self.theta)
        return self._expand({(a, b): unit * Fraction(a, b) for a, b in self.pairs})

    def conditional(self) -> dict[DirectedEdge, Fraction]:
        """Distribution of the returned edge given that the attempt succeeded,
        one division per ratio class."""
        if self.success_prob == 0:
            raise ValueError("success probability is zero; conditional undefined")
        return self._expand({(a, b): Fraction(a, b * self.weight) for a, b in self.pairs})


def attempt_distribution(g: Graph, theta: int) -> ClosedFormDistribution:
    """Closed-form distribution of one fair light/heavy mixture attempt."""
    part = partition(g, theta)
    ids = np.flatnonzero(part.heavy)
    o = g.offsets
    starts, deg = o[ids], o[ids + 1] - o[ids]
    # Gather the heavy rows' targets back to back; row k starts at firsts[k].
    # reduceat needs every row nonempty, which holds as d > theta >= 1.
    firsts = np.cumsum(deg) - deg
    rows = g.targets[np.arange(part.e_heavy) + np.repeat(starts - firsts, deg)]
    d_light = np.add.reduceat(~part.heavy[rows], firsts, dtype=np.int64)
    heavy = dict(zip(ids.tolist(), zip(d_light.tolist(), deg.tolist())))
    return ClosedFormDistribution(g, part, heavy)


def enumerate_attempt_distribution(g: Graph, theta: int) -> dict[DirectedEdge, Fraction]:
    """Exhaustive enumeration of one mixture attempt's sample space, as
    per-edge return probabilities (their sum is the success probability).

    Follows the procedures literally: a fair coin picks the light or heavy
    track; then start vertex u (1/n), slot j in [theta] (1/theta), and on
    the heavy track a uniform neighbor index of the hit vertex. Exact
    rationals throughout; intended for small graphs.
    """
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    light, heavy = enumerate_track_distributions(g, theta)
    zero = Fraction(0)
    return {e: (light.get(e, zero) + heavy.get(e, zero)) / 2 for e in g.directed_edges()}


def enumerate_track_distributions(g: Graph, theta: int) -> tuple[dict[DirectedEdge, Fraction], ...]:
    """Exhaustive per-edge return probabilities of the light and the heavy
    track alone, as two dicts, from one walk over start vertex u and slot j."""
    light: dict[DirectedEdge, Fraction] = {}
    heavy: dict[DirectedEdge, Fraction] = {}
    w_uj = Fraction(1, g.n * theta)
    for u in range(g.n):
        if g.degree(u) > theta:
            continue
        for j in range(1, theta + 1):
            v = g.neighbor(u, j)
            if v is None:
                continue
            light[DirectedEdge(u, v)] = light.get(DirectedEdge(u, v), Fraction(0)) + w_uj
            if g.degree(v) > theta:  # the heavy track goes on to a uniform neighbor w of v
                w_pick = w_uj / g.degree(v)
                for w in g.neighbors(v):
                    heavy[DirectedEdge(v, w)] = heavy.get(DirectedEdge(v, w), Fraction(0)) + w_pick
    return light, heavy


def enumerate_fallback_distribution(g: Graph) -> dict[DirectedEdge, Fraction]:
    """Exhaustive per-edge probabilities of one uniform-slot fallback attempt.

    Start vertex u and slot i are both uniform on [n]; the attempt returns
    (u, i-th neighbor) when i <= d(u). Every directed edge lands on exactly
    one (u, i) outcome, so each has probability 1/n^2.
    """
    out: dict[DirectedEdge, Fraction] = {}
    w = Fraction(1, g.n * g.n)
    for u in range(g.n):
        for i in range(1, g.n + 1):
            v = g.neighbor(u, i)
            if v is not None:
                e = DirectedEdge(u, v)
                out[e] = out.get(e, Fraction(0)) + w
    return out


@dataclass
class ClosenessReport:
    """How far the conditional returned-edge distribution is from uniform."""

    max_ratio_dev: Fraction
    tv_distance: Fraction
    success_prob: Fraction
    edge_count: int

    def pointwise_ok(self, epsilon: float) -> bool:
        return self.max_ratio_dev <= Fraction(epsilon)


def conditional_closeness(dist: ClosedFormDistribution) -> ClosenessReport:
    """Max relative deviation and TV distance of the conditional vs uniform.

    The uniform reference puts 1/m_dir on every directed edge, so an edge
    the attempt can never return (ratio 0) contributes a deviation of 1.
    An edge of ratio a/b has conditional probability a / (b weight), so its
    deviation is |a m - b weight| / (b weight); the sums run over the
    common denominator lcm(b) weight.
    """
    if dist.success_prob == 0:
        raise ValueError("success probability is zero; conditional undefined")
    m, w = dist.graph.m_dir, dist.weight
    scale = math.lcm(*(b for _, b in dist.pairs))
    max_dev = spread = 0
    for (a, b), count in dist.pairs.items():
        dev = abs(a * m - b * w) * (scale // b)
        max_dev = max(max_dev, dev)
        spread += count * dev
    return ClosenessReport(Fraction(max_dev, w * scale), Fraction(spread, 2 * w * m * scale), dist.success_prob, m)


def vertex_return_distribution(dist: ClosedFormDistribution) -> dict[int, Fraction]:
    """Distribution of the vertex obtained by returning either endpoint of
    the conditionally-sampled edge with probability 1/2 each."""
    if dist.success_prob == 0:
        raise ValueError("success probability is zero; conditional undefined")
    g = dist.graph
    # Integer edge weights proportional to probability. A vertex total is at
    # most 2 scale m_dir: int64 when that fits, Python ints (object) if not.
    scale = math.lcm(*(b for _, b in dist.pairs))
    dtype = np.int64 if 2 * scale * g.m_dir < 2**63 else object
    weight = np.full(g.n, scale, dtype=dtype)
    for v, (dl, d) in dist.heavy.items():
        weight[v] = dl * scale // d
    deg = np.diff(g.offsets).astype(dtype)
    rows = np.flatnonzero(deg)
    totals = deg[rows] * weight[rows] + np.add.reduceat(weight[g.targets], g.offsets[rows])
    values, index = np.unique(totals, return_inverse=True)
    probs = [Fraction(x, 2 * scale * dist.weight) for x in values.tolist()]
    return dict(zip(rows.tolist(), map(probs.__getitem__, index.tolist())))


@dataclass
class BoundCheck:
    """One analytic bound: its margin and verdict."""

    name: str
    applicable: bool
    passed: bool
    margin: Fraction | None
    note: str = ""

    def as_dict(self) -> dict:
        return {**vars(self), "margin": None if self.margin is None else float(self.margin)}


@dataclass
class AttemptBoundsReport:
    theta: int
    epsilon: float
    checks: list[BoundCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    def as_dict(self) -> dict:
        checks = [c.as_dict() for c in self.checks]
        return {**vars(self), "all_passed": self.all_passed, "checks": checks}


def verify_attempt_bounds(g: Graph, theta: int, epsilon: float) -> AttemptBoundsReport:
    """``check_attempt_bounds`` of the attempt distribution of g at theta."""
    return check_attempt_bounds(attempt_distribution(g, theta), epsilon)


def check_attempt_bounds(dist: ClosedFormDistribution, epsilon: float) -> AttemptBoundsReport:
    """Exact-arithmetic check of every bound the attempt analysis promises.

    * light-track success equals e_light / (n theta);
    * heavy-track success lies in
      [e_heavy (1 - m/theta^2) / (n theta), e_heavy / (n theta)];
    * every heavy vertex has d_L(v) > (1 - m/theta^2) d(v);
    * the mixture succeeds with probability >= (1 - eps) m / (2 n theta),
      applicable only when theta >= sqrt(2 m / eps).

    Checks whose hypotheses fail are marked not-applicable, not failed.
    Each compares integer numerators over one denominator (n theta^3 for
    the heavy interval, theta^2 for d_L dominance, 2 n theta e for the
    mixture, where eps = c / e) and builds its margin as one Fraction;
    notes print a / b, which rounds as float(Fraction(a, b)) does.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    g, theta, part, heavy = dist.graph, dist.theta, dist.partition, dist.heavy
    m, nt, t2 = g.m_dir, g.n * theta, theta * theta
    report = AttemptBoundsReport(theta=theta, epsilon=epsilon)
    check = report.checks.append

    # A track alone succeeds with twice its units of 1/(2 n theta): over n theta.
    heavy_units = sum(dl for dl, _ in heavy.values())
    light = dist.weight - heavy_units
    check(BoundCheck("light_success_equals_e_light_over_n_theta", True, light == part.e_light,
                     Fraction(light - part.e_light, nt), f"success={light / nt:.6g}"))

    den = nt * t2
    hi, up, lo = heavy_units * t2, part.e_heavy * t2, part.e_heavy * (t2 - m)
    check(BoundCheck("heavy_success_within_interval", True, lo <= hi <= up, Fraction(min(hi - lo, up - hi), den),
                     f"success={hi / den:.6g} in [{lo / den:.6g}, {up / den:.6g}]"))

    margin = min((dl * t2 - (t2 - m) * d for dl, d in heavy.values()), default=None)
    check(BoundCheck("heavy_light_degree_dominates", bool(heavy), margin is None or margin > 0,
                     None if margin is None else Fraction(margin, t2),
                     f"{len(heavy)} heavy vertices" if heavy else "no heavy vertices"))

    c, e = epsilon.as_integer_ratio()
    applicable = c * t2 >= 2 * m * e
    den, win, bound = 2 * nt * e, dist.weight * e, (e - c) * m
    note = f"success={win / den:.6g} >= {bound / den:.6g}" if applicable else \
        "theta below sqrt(2 m / eps); bound not claimed"
    check(BoundCheck("mixture_success_lower_bound", applicable, not applicable or win >= bound,
                     Fraction(win - bound, den) if applicable else None, note))
    return report


def run_failure_probability(g: Graph, config) -> float:
    """Exact failure probability of one full sampling run on a known graph.

    Uses the attempt success probability of whichever track the run takes:
    (1 - s)^q on the mixture path, (1 - m/n^2)^n on the fallback path.
    """
    if config.q > g.n:
        per_attempt = g.m_dir / (g.n * g.n)
        budget = g.n
    else:
        per_attempt = float(attempt_distribution(g, config.theta).success_prob)
        budget = config.q
    if per_attempt >= 1.0:
        return 0.0
    return math.exp(budget * math.log1p(-per_attempt))
