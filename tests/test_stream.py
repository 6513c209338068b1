"""The samplers consume exactly the random stream of the plain procedures.

The library draws vertices, slots and neighbour indices by inline
``getrandbits`` rejection, and runs all mixture attempts in one loop; on a
plain unbudgeted oracle that loop and the degree-sum estimate read the
graph directly and charge their queries in bulk. The
reference below is the procedure as written in the paper: one call of
``rng.random()``, ``oracle.rng.randrange(n)`` or ``rng.randint(...)`` per
draw, and one metered oracle call per query. Both are run from the same
seeds and must agree on the outcome, the attempts used, every query
counter, the query at which a budget runs out, and the generator states
afterwards.
"""

import math
import random
from dataclasses import asdict
from itertools import combinations, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesample import (
    BudgetExceeded,
    QueryOracle,
    SamplerConfig,
    estimate_edges,
    fallback_uniform_edge,
    mixture_attempt,
    sample_edge_almost_uniformly,
    sample_heavy_edge,
    sample_light_edge,
)
from edgesample.experiments import WitnessOracle
from edgesample.generators import star
from edgesample.graph import RelabeledView, build_graph

# ---------------------------------------------------------------------------
# The reference: one plain call per random draw, one oracle call per query
# ---------------------------------------------------------------------------


class ReferenceOracle:
    def __init__(self, graph, seed, budget=None):
        self.graph = graph
        self.rng = random.Random(seed)
        self.budget = budget
        self.counts = {"vertex": 0, "degree": 0, "neighbor": 0, "pair": 0}

    def _charge(self, kind):
        if self.budget is not None and sum(self.counts.values()) >= self.budget:
            raise BudgetExceeded(f"query budget {self.budget} exhausted")
        self.counts[kind] += 1

    def random_vertex(self):
        self._charge("vertex")
        return self.rng.randrange(self.graph.n)

    def degree(self, v):
        self._charge("degree")
        return self.graph.degree(v)

    def neighbor(self, v, i):
        self._charge("neighbor")
        return self.graph.neighbor(v, i)


def ref_light(o, theta, rng):
    u = o.random_vertex()
    if o.degree(u) > theta:
        return None
    v = o.neighbor(u, rng.randint(1, theta))
    return None if v is None else (u, v)


def ref_heavy(o, theta, rng):
    hit = ref_light(o, theta, rng)
    if hit is None:
        return None
    v = hit[1]
    dv = o.degree(v)
    if dv <= theta:
        return None
    return (v, o.neighbor(v, rng.randint(1, dv)))


def ref_mixture(o, theta, rng):
    if rng.random() < 0.5:
        return ref_light(o, theta, rng)
    return ref_heavy(o, theta, rng)


def ref_run(o, theta, q, rng):
    if q > o.graph.n:
        return ref_fallback(o, o.graph.n, rng)
    for attempt in range(1, q + 1):
        edge = ref_mixture(o, theta, rng)
        if edge is not None:
            return edge, attempt
    return None, q


def ref_fallback(o, budget, rng):
    for attempt in range(1, budget + 1):
        u = o.random_vertex()
        v = o.neighbor(u, rng.randint(1, o.graph.n))
        if v is not None:
            return (u, v), attempt
    return None, budget


def ref_degree_sum(o, samples):
    if samples is None:
        n = o.graph.n
        pilot = ref_degree_sum(o, max(1, math.ceil(n / math.sqrt(n))))
        samples = max(1, math.ceil(n / math.sqrt(pilot)))
    total = 0
    for _ in range(samples):
        total += o.degree(o.random_vertex())
    return max(1.0, 1.5 * o.graph.n * total / samples)


# ---------------------------------------------------------------------------
# Running both sides
# ---------------------------------------------------------------------------


def both(graph, seed, budget, separate_rng, library_call, reference_call):
    """Run the library and the reference from the same seeds.

    Each side reports (result or "budget", query counts, state of the
    oracle's generator, state of the sampler's generator).
    """
    sides = []
    for oracle, call in (
        (QueryOracle(graph, seed=seed, budget=budget), library_call),
        (ReferenceOracle(graph, seed, budget), reference_call),
    ):
        rng = random.Random(seed + 1) if separate_rng else oracle.rng
        try:
            result = call(oracle, rng)
        except BudgetExceeded:
            result = "budget"
        sides.append((result, counts_of(oracle), oracle.rng.getstate(), rng.getstate()))
    return sides


def counts_of(oracle):
    return dict(oracle.counts) if isinstance(oracle.counts, dict) else asdict(oracle.counts)


def hub_graph(hubs, leaves):
    """A clique on ``hubs`` vertices, each hub with ``leaves`` private leaves."""
    edges = list(combinations(range(hubs), 2))
    edges += [(i, hubs + i * leaves + k) for i in range(hubs) for k in range(leaves)]
    return build_graph(edges, hubs + hubs * leaves)


@st.composite
def graphs(draw):
    """Uniform random edge sets, or hub cliques whose hubs own private leaves."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        pairs = list(combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return build_graph(edges, n)
    return hub_graph(draw(st.integers(2, 5)), draw(st.integers(1, 6)))


budgets = st.one_of(st.none(), st.integers(0, 80))


def report_tuple(report):
    return (report.outcome, report.attempts_used)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data(), st.integers(0, 2**32), budgets, st.booleans())
def test_full_run_and_fallback_match_reference(g, data, seed, budget, separate_rng):
    theta = data.draw(st.integers(1, g.n + 2))
    q = data.draw(st.integers(1, 2 * g.n + 1))
    cfg = SamplerConfig(epsilon=0.25, m_hat=max(1.0, float(g.m_dir)), theta=theta, q=q)
    got, want = both(
        g, seed, budget, separate_rng,
        lambda o, rng: report_tuple(sample_edge_almost_uniformly(o, cfg, rng)),
        lambda o, rng: ref_run(o, theta, q, rng),
    )
    assert got == want
    fallback_budget = data.draw(st.integers(1, 3 * g.n))
    got, want = both(
        g, seed, budget, separate_rng,
        lambda o, rng: report_tuple(fallback_uniform_edge(o, rng=rng, budget=fallback_budget)),
        lambda o, rng: ref_fallback(o, fallback_budget, rng),
    )
    assert got == want


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data(), st.integers(0, 2**32), budgets, st.booleans())
def test_single_attempts_match_reference(g, data, seed, budget, separate_rng):
    theta = data.draw(st.integers(1, g.n + 2))

    def twenty(attempt):
        return lambda o, rng: [attempt(o, theta, rng) for _ in range(20)]

    for library, reference in (
        (mixture_attempt, ref_mixture),
        (sample_light_edge, ref_light),
        (sample_heavy_edge, ref_heavy),
    ):
        got, want = both(g, seed, budget, separate_rng, twenty(library), twenty(reference))
        assert got == want


@settings(max_examples=150, deadline=None)
@given(graphs(), st.one_of(st.none(), st.integers(1, 40)), st.integers(0, 2**32), budgets)
def test_degree_sum_estimate_matches_reference(g, samples, seed, budget):
    if g.m_dir < 2:
        return
    got, want = both(
        g, seed, budget, False,
        lambda o, rng: estimate_edges(o, "degree-sum-mc", samples).m_hat,
        lambda o, rng: ref_degree_sum(o, samples),
    )
    assert got == want


@pytest.mark.parametrize("separate_rng", [False, True])
def test_estimate_and_run_match_reference_at_size(separate_rng):
    # n > 2**16: vertex draws wider than any hypothesis graph above reaches.
    g = hub_graph(20, 3300)

    def draws(estimate, run):
        def call(o, rng):
            out = []
            for _ in range(20):
                m_hat = estimate(o)
                cfg = SamplerConfig.for_graph(g.n, m_hat, 0.25)
                out.append((m_hat, run(o, cfg, rng), counts_of(o)))
            return out
        return call

    got, want = both(
        g, 2024, None, separate_rng,
        draws(lambda o: estimate_edges(o, "degree-sum-mc").m_hat,
              lambda o, cfg, rng: report_tuple(sample_edge_almost_uniformly(o, cfg, rng))),
        draws(lambda o: ref_degree_sum(o, None),
              lambda o, cfg, rng: ref_run(o, cfg.theta, cfg.q, rng)),
    )
    assert got == want


# ---------------------------------------------------------------------------
# Which oracles the bulk-charged loops read around
# ---------------------------------------------------------------------------

HUBS = hub_graph(5, 200)  # theta 128 at m_hat = m_dir: the five hubs are heavy
HUBS_CONFIG = SamplerConfig(epsilon=0.25, m_hat=float(HUBS.m_dir), theta=128, q=200)


def test_plain_unbudgeted_oracle_never_calls_its_methods():
    def no_methods(oracle):
        def refuse(*args):
            raise AssertionError("a bulk-charged loop called an oracle method")

        oracle.random_vertex = oracle.degree = oracle.neighbor = refuse
        return oracle

    for seed in range(5):
        for separate_rng in (False, True):
            got, want = both(
                HUBS, seed, None, separate_rng,
                lambda o, rng: (
                    estimate_edges(no_methods(o), "degree-sum-mc").m_hat,
                    [report_tuple(sample_edge_almost_uniformly(o, HUBS_CONFIG, rng)) for _ in range(5)],
                    [mixture_attempt(o, HUBS_CONFIG.theta, rng) for _ in range(20)],
                ),
                lambda o, rng: (
                    ref_degree_sum(o, None),
                    [ref_run(o, HUBS_CONFIG.theta, HUBS_CONFIG.q, rng) for _ in range(5)],
                    [ref_mixture(o, HUBS_CONFIG.theta, rng) for _ in range(20)],
                ),
            )
            assert got == want


class CountingOracle(QueryOracle):
    """A subclass that sees every query: the bulk-charged loops must not skip it."""

    def __init__(self, graph, seed=None, budget=None):
        super().__init__(graph, seed=seed, budget=budget)
        self.calls = 0

    def random_vertex(self):
        self.calls += 1
        return super().random_vertex()

    def degree(self, v):
        self.calls += 1
        return super().degree(v)

    def neighbor(self, v, i):
        self.calls += 1
        return super().neighbor(v, i)

    def pair(self, v, w):
        self.calls += 1
        return super().pair(v, w)


@pytest.mark.parametrize("call", [
    lambda o: [report_tuple(sample_edge_almost_uniformly(o, HUBS_CONFIG)) for _ in range(5)],
    lambda o: [mixture_attempt(o, HUBS_CONFIG.theta) for _ in range(50)],
    lambda o: estimate_edges(o, "degree-sum-mc").m_hat,
], ids=["run", "mixture_attempt", "degree_sum"])
def test_subclassed_oracle_sees_every_query(call):
    for seed in range(5):
        counting, plain = CountingOracle(HUBS, seed=seed), QueryOracle(HUBS, seed=seed)
        assert call(counting) == call(plain)
        assert counting.counts == plain.counts
        assert counting.rng.getstate() == plain.rng.getstate()
        assert counting.calls == counting.counts.total > 0


def test_relabeled_view_matches_reference():
    # A view has no CSR lists: a plain unbudgeted oracle over it keeps the method loop.
    view = RelabeledView(HUBS, random.Random(5).sample(range(HUBS.n), HUBS.n))
    for seed in range(3):
        got, want = both(
            view, seed, None, False,
            lambda o, rng: (estimate_edges(o, "degree-sum-mc").m_hat,
                            report_tuple(sample_edge_almost_uniformly(o, HUBS_CONFIG, rng))),
            lambda o, rng: (ref_degree_sum(o, None), ref_run(o, HUBS_CONFIG.theta, HUBS_CONFIG.q, rng)),
        )
        assert got == want


# ---------------------------------------------------------------------------
# A budget that runs out inside one attempt
# ---------------------------------------------------------------------------

STAR = star(5)  # centre 0 is the only heavy vertex at theta = 3
STAR_CONFIG = SamplerConfig(epsilon=0.25, m_hat=10.0, theta=3, q=6)


def first_heavy_success_seed():
    """A seed whose first mixture attempt on STAR is a 5-query heavy-track win."""
    for seed in count():
        o = ReferenceOracle(STAR, seed)
        if ref_mixture(o, 3, o.rng) is not None and sum(o.counts.values()) == 5:
            return seed


def test_budget_cut_inside_heavy_attempt_matches_reference():
    seed = first_heavy_success_seed()
    for budget in range(6):
        got, want = both(
            STAR, seed, budget, False,
            lambda o, rng: report_tuple(sample_edge_almost_uniformly(o, STAR_CONFIG, rng)),
            lambda o, rng: ref_run(o, 3, STAR_CONFIG.q, rng),
        )
        assert got == want
        assert sum(got[1].values()) == budget
        assert (got[0] == "budget") == (budget < 5)


def test_witness_seen_through_heavy_track_only():
    # The start vertex of a heavy-track win on a star is a leaf; the centre
    # is touched first by the degree query of the hit vertex, query 4.
    seed = first_heavy_success_seed()
    witnessed = []
    for budget in range(6):
        o = WitnessOracle(STAR, frozenset({0}), seed=seed, budget=budget)
        try:
            report = sample_edge_almost_uniformly(o, STAR_CONFIG)
            assert report.outcome.origin == 0 and report.attempts_used == 1
        except BudgetExceeded:
            pass
        witnessed.append(o.witnessed)
    assert witnessed == [False] * 4 + [True] * 2
