"""Exact per-edge return probabilities and closeness diagnostics.

Two independent routes to the same distribution keep each other honest:

* ``attempt_distribution`` evaluates the closed form of one mixture
  attempt: a light edge is returned with probability 1/(2 n theta); a
  heavy edge (v, w) with probability d_L(v) / (2 n theta d(v)), where
  d_L(v) counts v's light neighbors.
* ``enumerate_attempt_distribution`` walks the attempt's full sample
  space (coin x start vertex x slot index x neighbor pick) step by step
  and tallies outcome weights.

Both rest on the light/heavy ``partition`` of the vertices at theta, a
boolean mask over the degree array; every heavy vertex's d_L comes from
one ``bincount`` over the CSR arrays. The closed form depends only on an
edge's origin, so it is held per vertex, not per edge. The directed edges fall into a few classes keyed
by the ratio d_L(v)/d(v) of their origin (1 for a light origin), each
weighted by its directed-edge count. Success probability, closeness to
uniform and the bound margins are exact rational sums over those classes
at every graph size.
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
    e_light = int(deg[~heavy].sum())
    return DegreePartition(theta, heavy, e_light, g.m_dir - e_light)


@dataclass
class AttemptDistribution:
    """Per-directed-edge return probability of one mixture attempt."""

    theta: int
    per_edge: dict[DirectedEdge, Fraction]
    success_prob: Fraction

    def conditional(self) -> dict[DirectedEdge, Fraction]:
        """Distribution of the returned edge given that the attempt succeeded."""
        if self.success_prob == 0:
            raise ValueError("success probability is zero; conditional undefined")
        return {e: p / self.success_prob for e, p in self.per_edge.items()}


class ClosedFormDistribution(AttemptDistribution):
    """The closed form, held per origin vertex.

    An edge out of v has probability ``unit * ratio``: unit = 1/(2 n theta),
    ratio 1 for a light v and d_L(v)/d(v) for a heavy v (``light_degrees``
    maps heavy v to d_L). ``classes`` maps each ratio to its directed-edge
    count; the integer ``weight`` is success_prob / unit. ``per_edge`` is
    expanded from these only when read.
    """

    def __init__(self, g: Graph, part: DegreePartition, light_degrees: dict[int, int]):
        self.graph = g
        self.theta = part.theta
        self.partition = part
        self.light_degrees = light_degrees
        self.unit = Fraction(1, 2 * g.n * part.theta)
        self.weight = part.e_light + sum(light_degrees.values())
        self.success_prob = self.weight * self.unit
        classes = {Fraction(1): part.e_light}
        for v, dl in light_degrees.items():
            ratio = Fraction(dl, g.degree(v))
            classes[ratio] = classes.get(ratio, 0) + g.degree(v)
        self.classes = classes

    @cached_property
    def per_edge(self) -> dict[DirectedEdge, Fraction]:
        g = self.graph
        out: dict[DirectedEdge, Fraction] = {}
        for v in range(g.n):
            dl = self.light_degrees.get(v)
            p = self.unit if dl is None else self.unit * Fraction(dl, g.degree(v))
            for w in g.neighbors(v):
                out[DirectedEdge(v, w)] = p
        return out


def attempt_distribution(g: Graph, theta: int) -> ClosedFormDistribution:
    """Closed-form distribution of one fair light/heavy mixture attempt."""
    part = partition(g, theta)
    heavy = part.heavy
    origins = g._origins()
    # d_L of every vertex: its directed edges from a heavy origin to a light target
    d_light = np.bincount(origins[heavy[origins] & ~heavy[g.targets]], minlength=g.n)
    heavy_ids = np.flatnonzero(heavy)
    light_degrees = dict(zip(heavy_ids.tolist(), d_light[heavy_ids].tolist()))
    return ClosedFormDistribution(g, part, light_degrees)


def enumerate_attempt_distribution(g: Graph, theta: int) -> AttemptDistribution:
    """Exhaustive enumeration of one mixture attempt's sample space.

    Follows the procedures literally: a fair coin picks the light or heavy
    track; then start vertex u (1/n), slot j in [theta] (1/theta), and on
    the heavy track a uniform neighbor index of the hit vertex. Exact
    rationals throughout; intended for small graphs.
    """
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    half = Fraction(1, 2)
    per_edge: dict[DirectedEdge, Fraction] = {
        e: Fraction(0) for e in g.directed_edges()
    }
    for e, p in enumerate_light_distribution(g, theta).items():
        per_edge[e] += half * p
    for e, p in enumerate_heavy_distribution(g, theta).items():
        per_edge[e] += half * p
    success = sum(per_edge.values(), Fraction(0))
    return AttemptDistribution(theta=theta, per_edge=per_edge, success_prob=success)


def enumerate_light_distribution(g: Graph, theta: int) -> dict[DirectedEdge, Fraction]:
    """Exhaustive per-edge return probabilities of the light track alone."""
    out: dict[DirectedEdge, Fraction] = {}
    w_uj = Fraction(1, g.n * theta)
    for u in range(g.n):
        if g.degree(u) > theta:
            continue
        for j in range(1, theta + 1):
            v = g.neighbor(u, j)
            if v is not None:
                out[DirectedEdge(u, v)] = out.get(DirectedEdge(u, v), Fraction(0)) + w_uj
    return out


def enumerate_heavy_distribution(g: Graph, theta: int) -> dict[DirectedEdge, Fraction]:
    """Exhaustive per-edge return probabilities of the heavy track alone."""
    out: dict[DirectedEdge, Fraction] = {}
    w_uj = Fraction(1, g.n * theta)
    for u in range(g.n):
        if g.degree(u) > theta:
            continue
        for j in range(1, theta + 1):
            v = g.neighbor(u, j)
            if v is None or g.degree(v) <= theta:
                continue
            w_pick = w_uj / g.degree(v)
            for w in g.neighbors(v):
                e = DirectedEdge(v, w)
                out[e] = out.get(e, Fraction(0)) + w_pick
    return out


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
    An edge of ratio r has conditional probability r / weight, so its
    deviation is |r m - weight| / weight.
    """
    if dist.success_prob == 0:
        raise ValueError("success probability is zero; conditional undefined")
    m, w = dist.graph.m_dir, dist.weight
    max_dev = spread = Fraction(0)
    for ratio, count in dist.classes.items():
        dev = abs(ratio * m - w)
        max_dev = max(max_dev, dev)
        spread += count * dev
    return ClosenessReport(
        max_ratio_dev=max_dev / w,
        tv_distance=spread / (2 * w * m),
        success_prob=dist.success_prob,
        edge_count=m,
    )


def vertex_return_distribution(dist: ClosedFormDistribution) -> dict[int, Fraction]:
    """Distribution of the vertex obtained by returning either endpoint of
    the conditionally-sampled edge with probability 1/2 each."""
    if dist.success_prob == 0:
        raise ValueError("success probability is zero; conditional undefined")
    g = dist.graph
    # Integer weight of each edge out of v, proportional to its probability.
    scale = math.lcm(*(g.degree(v) for v in dist.light_degrees))
    weight = [scale] * g.n
    for v, dl in dist.light_degrees.items():
        weight[v] = dl * scale // g.degree(v)
    total = 2 * scale * dist.weight
    return {
        v: Fraction(g.degree(v) * weight[v] + sum(weight[w] for w in g.neighbors(v)), total)
        for v in range(g.n)
        if g.degree(v)
    }


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
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    g, theta, part = dist.graph, dist.theta, dist.partition
    n, m = g.n, g.m_dir
    eps = Fraction(epsilon)
    report = AttemptBoundsReport(theta=theta, epsilon=epsilon)

    light_sum = 2 * dist.unit * part.e_light
    light_formula = Fraction(part.e_light, n * theta)
    report.checks.append(
        BoundCheck(
            name="light_success_equals_e_light_over_n_theta",
            applicable=True,
            passed=light_sum == light_formula,
            margin=light_sum - light_formula,
            note=f"success={float(light_sum):.6g}",
        )
    )

    heavy_sum = 2 * dist.unit * sum(dist.light_degrees.values())
    factor = 1 - Fraction(m, theta * theta)
    upper = Fraction(part.e_heavy, n * theta)
    lower = upper * factor
    report.checks.append(
        BoundCheck(
            name="heavy_success_within_interval",
            applicable=True,
            passed=lower <= heavy_sum <= upper,
            margin=min(heavy_sum - lower, upper - heavy_sum),
            note=f"success={float(heavy_sum):.6g} in [{float(lower):.6g}, {float(upper):.6g}]",
        )
    )

    heavy = dist.light_degrees
    margin = min((dl - factor * g.degree(v) for v, dl in heavy.items()), default=None)
    report.checks.append(
        BoundCheck(
            name="heavy_light_degree_dominates",
            applicable=bool(heavy),
            passed=margin is None or margin > 0,
            margin=margin,
            note=f"{len(heavy)} heavy vertices" if heavy else "no heavy vertices",
        )
    )

    applicable = eps * theta * theta >= 2 * m
    bound = (1 - eps) * Fraction(m, 2 * n * theta)
    if applicable:
        note = f"success={float(dist.success_prob):.6g} >= {float(bound):.6g}"
    else:
        note = "theta below sqrt(2 m / eps); bound not claimed"
    report.checks.append(
        BoundCheck(
            name="mixture_success_lower_bound",
            applicable=applicable,
            passed=not applicable or dist.success_prob >= bound,
            margin=dist.success_prob - bound if applicable else None,
            note=note,
        )
    )
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
