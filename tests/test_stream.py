"""The samplers' three paths against literal references.

The method loop (every oracle but a plain unbudgeted one) draws vertices,
slots and neighbour indices by inline ``getrandbits`` rejection. The
reference below is the procedure as written in the paper: one call of
``rng.random()``, ``oracle.rng.randrange(n)`` or ``rng.randint(...)`` per
draw, and one metered oracle call per query. Both are run from the same
seeds and must agree on the outcome, the attempts used, every query
counter, the query at which a budget runs out, and the generator states
afterwards.

A plain unbudgeted oracle takes one of two other paths, each drawing
other numbers. Both skip to the attempts that propose an edge slot: the
walk one proposal at a time, and, for pooled calls, the numpy kernel in
blocks. Each path's outcomes, attempts and query counts must equal the
scalar rule applied, proposal by proposal, to the numbers it drew
(replayed from a copy of its generator), and their distribution must
match the exact one. The degree-sum estimate on such an oracle reads
the degree sums of the oracle's vertex pool; it is replayed from a twin
oracle's fills.
"""

import copy
import math
import pickle
import random
import sys
import threading
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations, count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesample import (
    BudgetExceeded,
    QueryOracle,
    SamplerConfig,
    attempt_distribution,
    estimate_edges_amplified,
    sample_edge_almost_uniformly,
)
from edgesample.estimate import _degree_sum_mc
from edgesample.generators import erdos_renyi, path, star
from edgesample.graph import RelabeledView, build_graph
from edgesample import oracle as oracle_module, sampler
from edgesample.oracle import VERTEX_BLOCK
from edgesample.sampler import _charge, _kernel, _plan, _runs, _walk

from conftest import no_generator

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


class MethodLoopOracle(QueryOracle):
    """A subclass, so the library makes every query through the methods."""


def both(graph, seed, budget, separate_rng, library_call, reference_call, library_oracle=MethodLoopOracle):
    """Run the library and the reference from the same seeds.

    Each side reports (result or "budget", query counts, state of the
    oracle's generator, state of the sampler's generator).
    """
    sides = []
    for oracle, call in (
        (library_oracle(graph, seed=seed, budget=budget), library_call),
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
    cfg = SamplerConfig(theta=theta, q=q)  # q > n runs the fallback
    got, want = both(
        g, seed, budget, separate_rng,
        lambda o, rng: report_tuple(sample_edge_almost_uniformly(o, cfg, rng)),
        lambda o, rng: ref_run(o, theta, q, rng),
    )
    assert got == want


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data(), st.integers(0, 2**32), budgets)
def test_single_attempts_match_reference(g, data, seed, budget):
    theta = data.draw(st.integers(1, g.n + 2))
    got, want = both(
        g, seed, budget, False,
        lambda o, rng: [sample_edge_almost_uniformly(o, SamplerConfig(theta, 1)).outcome for _ in range(20)],
        lambda o, rng: [ref_mixture(o, theta, rng) for _ in range(20)],
    )
    assert got == want


@settings(max_examples=150, deadline=None)
@given(graphs(), st.one_of(st.none(), st.integers(1, 40)), st.integers(0, 2**32), budgets)
def test_degree_sum_estimate_matches_reference(g, samples, seed, budget):
    if g.m_dir < 2:
        return
    got, want = both(
        g, seed, budget, False,
        lambda o, rng: estimate_edges_amplified(o, "degree-sum-mc", samples).m_hat,
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
        draws(lambda o: estimate_edges_amplified(o, "degree-sum-mc").m_hat,
              lambda o, cfg, rng: report_tuple(sample_edge_almost_uniformly(o, cfg, rng))),
        draws(lambda o: ref_degree_sum(o, None),
              lambda o, cfg, rng: ref_run(o, cfg.theta, cfg.q, rng)),
    )
    assert got == want


# ---------------------------------------------------------------------------
# Which oracles the kernels read around
# ---------------------------------------------------------------------------

HUBS = hub_graph(5, 200)  # theta 128 at m_hat = m_dir: the five hubs are heavy
HUBS_CONFIG = SamplerConfig(theta=128, q=200)


def no_methods(oracle):
    """The oracle, with its four query methods replaced by ones that fail the test."""
    def refuse(*args):
        raise AssertionError("a bulk path called an oracle method")

    oracle.random_vertex = oracle.degree = oracle.neighbor = oracle.pair = refuse
    return oracle


def test_plain_unbudgeted_oracle_never_calls_its_methods():
    # 20 runs take the walk, 200 pooled runs the kernel (see the routing test below)
    def draws(seed, separate_rng):
        o = no_methods(QueryOracle(HUBS, seed=seed))
        rng = random.Random(seed + 1) if separate_rng else o.rng
        result = (
            estimate_edges_amplified(o, "degree-sum-mc").m_hat,
            [report_tuple(sample_edge_almost_uniformly(o, HUBS_CONFIG, rng)) for _ in range(5)],
            [column.tolist() for runs in (20, 200) for column in _runs(o, HUBS_CONFIG.theta, HUBS_CONFIG.q, runs, rng)],
        )
        return result, counts_of(o), o.rng.getstate(), rng.getstate()

    for seed in range(5):
        for separate_rng in (False, True):
            first = draws(seed, separate_rng)
            assert first[1]["vertex"] > 0
            assert draws(seed, separate_rng) == first


def test_pooled_calls_take_the_kernel_and_the_rest_the_walk(monkeypatch):
    # From _POOL runs on, a call pools in the kernel, unless p = m_dir / (n theta)
    # is at most 2^-40, where the kernel's int64 positions could overflow: star(50)
    # pools at theta 2^40 (p = 100/51 2^-40) and walks at 2^41.
    taken = []
    for name in ("_kernel", "_walk"):
        real = getattr(sampler, name)
        monkeypatch.setattr(sampler, name, lambda *args, real=real, name=name: taken.append(name) or real(*args))
    o = QueryOracle(HUBS, seed=1)
    for runs in (1, sampler._POOL - 1, sampler._POOL, 200):
        _runs(o, HUBS_CONFIG.theta, HUBS_CONFIG.q, runs, o.rng)
    for theta in (2**40, 2**41):
        _runs(QueryOracle(star(50), seed=1), theta, 7, 200, o.rng)
    assert taken == ["_walk", "_walk", "_kernel", "_kernel", "_kernel", "_walk"]


@pytest.mark.parametrize("theta", [2**62, 2**64])
def test_theta_past_the_kernels_draw_takes_the_walk(theta):
    # p = m_dir / (n theta) is below 2^-40, the kernel's floor, but the walk's
    # gaps do not depend on it: a pooled call on a plain oracle walks, a
    # budgeted one takes the method loop, and both give up after q empty slots.
    q, runs = 40, 2 * sampler._POOL
    walked, looped = no_generator(no_methods(QueryOracle(star(50), seed=1))), QueryOracle(star(50), seed=1, budget=10**6)
    sides = [([column.tolist() for column in _runs(o, theta, q, runs, o.rng)], counts_of(o)) for o in (walked, looped)]
    assert sides[0] == sides[1]
    assert sides[0][0] == [[-1] * runs, [-1] * runs, [q] * runs]
    assert sides[0][1] == {"vertex": q * runs, "degree": q * runs, "neighbor": q * runs, "pair": 0}


@pytest.mark.parametrize("g, theta", [
    (build_graph([], 6), 3),  # edgeless: no slot to propose
    (erdos_renyi(30, 0.3, 1), 1),  # m_dir > n theta: more than one proposal an attempt
    (star(50), 10**400),  # p = m_dir / (n theta) is 0.0 as a float: no finite gap
], ids=["edgeless", "m_dir above n theta", "p below 2^-64"])
def test_graphs_the_walk_cannot_skip_take_the_method_loop(g, theta):
    assert not sampler._skips(g, theta)
    for seed in range(3):
        for cfg in (SamplerConfig(theta, 1), SamplerConfig(theta, 7)):
            plain, loop = no_generator(QueryOracle(g, seed=seed)), MethodLoopOracle(g, seed=seed)
            calls = [[report_tuple(sample_edge_almost_uniformly(o, cfg)) for _ in range(5)] for o in (plain, loop)]
            calls += [[column.tolist() for column in _runs(o, theta, cfg.q, sampler._POOL, o.rng)] for o in (plain, loop)]
            assert calls[0] == calls[1] and calls[2] == calls[3]
            assert counts_of(plain) == counts_of(loop)
            assert plain.rng.getstate() == loop.rng.getstate()


def test_other_oracles_never_reach_the_walk_or_the_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("a metered-by-method oracle reached a bulk path")

    monkeypatch.setattr(sampler, "_walk", refuse)
    monkeypatch.setattr(sampler, "_kernel", refuse)
    view = RelabeledView(HUBS, random.Random(5).sample(range(HUBS.n), HUBS.n))
    for o in (QueryOracle(HUBS, seed=1, budget=10**6), MethodLoopOracle(HUBS, seed=1), QueryOracle(view, seed=1)):
        for runs in (1, 20, 200):
            before = o.counts.vertex
            origins, _, used = _runs(o, HUBS_CONFIG.theta, HUBS_CONFIG.q, runs, o.rng)
            assert len(origins) == runs and o.counts.vertex - before == used.sum()


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


@pytest.mark.parametrize("call, reference_call", [
    (lambda o: [report_tuple(sample_edge_almost_uniformly(o, HUBS_CONFIG)) for _ in range(5)],
     lambda o: [ref_run(o, HUBS_CONFIG.theta, HUBS_CONFIG.q, o.rng) for _ in range(5)]),
    (lambda o: [sample_edge_almost_uniformly(o, SamplerConfig(HUBS_CONFIG.theta, 1)).outcome for _ in range(50)],
     lambda o: [ref_mixture(o, HUBS_CONFIG.theta, o.rng) for _ in range(50)]),
    (lambda o: estimate_edges_amplified(o, "degree-sum-mc").m_hat, lambda o: ref_degree_sum(o, None)),
], ids=["run", "single_attempt", "degree_sum"])
def test_subclassed_oracle_sees_every_query(call, reference_call):
    for seed in range(5):
        counting, reference = CountingOracle(HUBS, seed=seed), ReferenceOracle(HUBS, seed)
        assert call(counting) == reference_call(reference)
        assert asdict(counting.counts) == reference.counts
        assert counting.rng.getstate() == reference.rng.getstate()
        assert counting.calls == counting.counts.total > 0


def test_relabeled_view_matches_reference():
    # A view has no CSR lists: a plain unbudgeted oracle over it keeps the method loop.
    view = RelabeledView(HUBS, random.Random(5).sample(range(HUBS.n), HUBS.n))
    for seed in range(3):
        got, want = both(
            view, seed, None, False,
            lambda o, rng: (estimate_edges_amplified(o, "degree-sum-mc").m_hat,
                            report_tuple(sample_edge_almost_uniformly(o, HUBS_CONFIG, rng))),
            lambda o, rng: (ref_degree_sum(o, None), ref_run(o, HUBS_CONFIG.theta, HUBS_CONFIG.q, rng)),
            library_oracle=QueryOracle,
        )
        assert got == want


# ---------------------------------------------------------------------------
# A budget that runs out inside one attempt
# ---------------------------------------------------------------------------

STAR = star(5)  # centre 0 is the only heavy vertex at theta = 3
STAR_CONFIG = SamplerConfig(theta=3, q=6)


def first_heavy_success_seed():
    """A seed whose first mixture attempt on STAR is a 5-query heavy-track win."""
    for seed in count():
        o = ReferenceOracle(STAR, seed)
        if ref_mixture(o, 3, o.rng) is not None and sum(o.counts.values()) == 5:
            return seed


def test_small_calls_on_a_plain_oracle_take_the_walk():
    # Single attempts and single runs walk: no oracle method is called, the
    # numpy generator is never drawn from, and the outcomes keep the exact law.
    dist = attempt_distribution(STAR, STAR_CONFIG.theta)
    s, support = float(dist.success_prob), {e for e, p in dist.per_edge.items() if p > 0}
    o = no_generator(no_methods(QueryOracle(STAR, seed=3)))
    singles = [sample_edge_almost_uniformly(o, SamplerConfig(STAR_CONFIG.theta, 1)) for _ in range(4000)]
    runs = [sample_edge_almost_uniformly(o, STAR_CONFIG) for _ in range(4000)]
    assert all(r.outcome in support for r in singles + runs if r.outcome is not None)
    assert sum(r.attempts_used for r in singles + runs) == o.counts.vertex
    for reports, p in ((singles, s), (runs, 1 - (1 - s) ** STAR_CONFIG.q)):
        won = sum(r.outcome is not None for r in reports)
        assert abs(won / len(reports) - p) < 4 * math.sqrt(p * (1 - p) / len(reports))


FALLBACK_CONFIG = SamplerConfig(theta=HUBS_CONFIG.theta, q=HUBS.n + 1)  # q > n: n fallback attempts


@pytest.mark.parametrize("make", [
    lambda seed: no_methods(QueryOracle(HUBS, seed=seed)),
    lambda seed: QueryOracle(HUBS, seed=seed, budget=10**9),
    lambda seed: MethodLoopOracle(HUBS, seed=seed),
], ids=["walk", "budgeted", "subclassed"])
@pytest.mark.parametrize("cfg", [HUBS_CONFIG, FALLBACK_CONFIG], ids=["mixture", "fallback"])
def test_single_run_reports_its_row_and_its_charge(make, cfg):
    # A single run reports its route's own Python row and charge: the row
    # _runs makes from the same generator state, in plain ints, and queries
    # equal to what the oracle's counters moved by.
    theta, q, fallback = _plan(cfg, HUBS.n)
    wins = 0
    for seed in range(10):
        o, pooled = make(seed), make(seed)
        for _ in range(3):  # later runs start from nonzero counters
            before = o.counts.copy()
            report = sample_edge_almost_uniformly(o, cfg)
            assert report.queries == o.counts - before and report.queries.total > 0
            assert report.used_fallback == fallback
            row = (*(report.outcome or (-1, -1)), report.attempts_used)
            assert all(type(x) is int for x in row)
            assert [column.tolist() for column in _runs(pooled, theta, q, 1, pooled.rng, fallback)] == [[x] for x in row]
            assert pooled.counts == o.counts and pooled.rng.getstate() == o.rng.getstate()
            wins += report.outcome is not None
    assert wins > 0


def test_a_walked_single_run_builds_no_numpy_array(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a walked single run built a numpy array")

    o = no_generator(QueryOracle(HUBS, seed=1))
    monkeypatch.setattr(sampler.np, "array", refuse)
    reports = [sample_edge_almost_uniformly(o, cfg) for cfg in (HUBS_CONFIG, FALLBACK_CONFIG) for _ in range(200)]
    monkeypatch.undo()
    assert sum(r.attempts_used for r in reports) == o.counts.vertex
    assert 0 < sum(r.outcome is not None for r in reports) < len(reports)


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
        view = RelabeledView(STAR, list(range(STAR.n)))
        view.marked = frozenset({0})
        o = QueryOracle(view, seed=seed, budget=budget)
        try:
            report = sample_edge_almost_uniformly(o, STAR_CONFIG)
            assert report.outcome.origin == 0 and report.attempts_used == 1
        except BudgetExceeded:
            pass
        witnessed.append(view.witnessed)
    assert witnessed == [False] * 4 + [True] * 2


# ---------------------------------------------------------------------------
# The kernel against the scalar rule, on the numbers it drew
# ---------------------------------------------------------------------------


class Recorder:
    """Passes the kernel's draws through to a generator and records each call."""

    def __init__(self, gen):
        self.gen = gen
        self.calls = []

    def integers(self, *args, **kwargs):
        self.calls.append(("integers", args, kwargs))
        return self.gen.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls.append(("random", args, kwargs))
        return self.gen.random(*args, **kwargs)


def gaps_of(g, theta, us):
    """The gap before each proposal, 1 + floor(log(1 - U) / log(1 - p)) with p = m_dir / (n theta), one a U
    (numpy's log, as the kernel takes it: it may differ from ``math.log`` in the last bit)."""
    p = g.m_dir / (g.n * theta)
    return np.ones(len(us), np.int64) if p == 1 else 1 + (np.log(1.0 - us) / math.log1p(-p)).astype(np.int64)


def charger(counts, fallback):
    """A charge of (vertex, degree, neighbor) queries to ``counts``: no degree query in the fallback."""
    def charge(vertex, degree, neighbor):
        counts["vertex"] += vertex
        counts["degree"] += 0 if fallback else degree
        counts["neighbor"] += neighbor

    return charge


def proposal(g, theta, r, coin, fallback, charge):
    """The method loop's rule at an attempt that proposes directed edge r: (branch, edge or None).

    r is slot r - o[x] of its origin x: past slot theta it is thinned into an
    empty slot, else the attempt starts at x, with ``coin()`` on an occupied
    slot (mixture only). A heavy-track win returns (v, None) and is charged
    its pick, which the caller draws.
    """
    x = int(np.searchsorted(g.offsets, r, "right")) - 1
    j = r - int(g.offsets[x])
    if j >= theta:
        charge(1, 1, 1)
        return "thinned", None
    if g.degree(x) > theta:
        charge(1, 1, 0)
        return "heavy start", None
    charge(1, 1, 1)
    v = g.neighbor(x, j + 1)
    if fallback or coin() < 0.5:
        return "light win", (x, v)
    if g.degree(v) <= theta:
        charge(0, 1, 0)
        return "heavy-track miss", None
    charge(0, 1, 1)
    return "heavy-track win", (v, None)


def scalar_kernel(g, theta, q, runs, draws, fallback, events):
    """The method loop's rule, proposal by proposal, on the kernel's draws.

    ``draws`` yields the kernel's calls in order. A block draws ``random(size)``
    for the gaps and ``integers(m_dir, size=size)`` for the proposed edges, then
    one coin array over the block's light starts (mixture only), then one pick
    array over the heavy-track wins it keeps. Unlike the walk, which draws a
    fresh gap for each run, the attempt positions run on across run ends and
    blocks: a gap past a run's q-th attempt ends the run and carries on into
    the next. Returns the runs as (edge or None, attempts used) and the query
    counts; ``events`` gets each (mode, branch).
    """
    mode = "fallback" if fallback else "mixture"
    out, counts, used, blocks = [], {"vertex": 0, "degree": 0, "neighbor": 0, "pair": 0}, 0, 0
    charge = charger(counts, fallback)
    while len(out) < runs:
        ((name, (size,), _), us), ((edges, (m,), kwargs), rs) = next(draws), next(draws)
        assert (name, edges, m, kwargs) == ("random", "integers", g.m_dir, {"size": size})
        if blocks and used:
            events.add((mode, "gap crosses a block"))
        blocks += 1
        coins = iter(())
        if not fallback:
            (name, (k,), _), coins = next(draws)
            light = [g.degree(int(np.searchsorted(g.offsets, r, "right")) - 1) <= theta for r in rs.tolist()]
            assert (name, k) == ("random", sum(light))
            coins = iter(coins.tolist())
        heavy_wins = []
        for gap, r in zip(gaps_of(g, theta, us).tolist(), rs.tolist()):
            crossed = False
            while used + gap > q and len(out) < runs:  # the run fails, and the gap carries on into the next
                charge(q - used, q - used, q - used)
                gap, used, crossed = gap - (q - used), 0, True
                out.append((None, q))
                events.add((mode, "q cut-off"))
            if len(out) == runs:
                break
            if crossed:
                events.add((mode, "gap crosses a run's end"))
            charge(gap - 1, gap - 1, gap - 1)
            used += gap
            branch, edge = proposal(g, theta, r, coins.__next__, fallback, charge)
            events.add((mode, branch))
            if branch == "heavy-track win":
                heavy_wins.append(len(out))
            if edge is not None or used == q:
                out.append((edge, used))
                used = 0
                if edge is None:
                    events.add((mode, "q cut-off"))
            if len(out) == runs:
                break
        if heavy_wins:
            (name, (highs,), _), picks = next(draws)
            origins = [out[i][0][0] for i in heavy_wins]
            assert name == "integers" and highs.tolist() == [g.degree(v) for v in origins]
            for i, v, pick in zip(heavy_wins, origins, picks.tolist()):
                out[i] = ((v, g.neighbor(v, pick + 1)), out[i][1])
    assert next(draws, None) is None, "the kernel drew numbers it did not use"
    return out, counts


def kernel_and_replay(g, theta, q, runs, seed, fallback=False, events=None):
    gen = np.random.Generator(np.random.PCG64(seed))
    twin = copy.deepcopy(gen)
    recorder = Recorder(gen)
    origins, targets, used, tally = _kernel(g, theta, q, runs, recorder, fallback)
    draws = ((call, getattr(twin, call[0])(*call[1], **call[2])) for call in recorder.calls)
    got = [(None if o < 0 else (o, t), k) for o, t, k in zip(origins.tolist(), targets.tolist(), used.tolist())]
    want = scalar_kernel(g, theta, q, runs, draws, fallback, set() if events is None else events)
    return (got, asdict(_charge(fallback, *tally))), want


cores = st.builds(hub_graph, st.integers(6, 20), st.integers(1, 2))  # heavy hubs hold most slots: several blocks


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(), cores), st.data(), st.integers(0, 2**63), st.integers(1, 200), st.booleans())
def test_kernel_matches_scalar_rule_on_its_draws(g, data, seed, runs, fallback):
    if g.m_dir == 0:
        return  # no slot to propose; edgeless graphs take the method loop
    theta = g.n if fallback else data.draw(st.integers(-(-g.m_dir // g.n), g.n + 2))  # p = m_dir / (n theta) <= 1
    q = g.n if fallback else data.draw(st.one_of(st.integers(1, 2 * g.n + 1), st.just(sys.maxsize)))
    if q == sys.maxsize and attempt_distribution(g, theta).success_prob == 0:
        return  # a run that never gives up would never end
    got, want = kernel_and_replay(g, theta, q, runs, seed, fallback)
    assert got == want


KITE = build_graph([(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (0, 6)], 7)  # at theta 2: centre 0 heavy, the rest light


CORE = hub_graph(20, 1)  # at theta 11 the hubs are heavy and hold 95% of the slots: a win takes about 20 proposals


def test_kernel_replay_reaches_every_branch():
    # 40 runs fit one block of 144 proposals on the first three graphs but span
    # several on CORE; q = 3 cuts runs off inside gaps.
    events = set()
    for g, theta in ((HUBS, 128), (STAR, 3), (KITE, 2), (CORE, 11)):
        for seed in range(3):
            for q in (3, 1000):
                got, want = kernel_and_replay(g, theta, q, 40, seed, events=events)
                assert got == want
            got, want = kernel_and_replay(g, g.n, g.n, 40, seed, fallback=True, events=events)
            assert got == want
    mixture = {"thinned", "heavy start", "light win", "heavy-track win", "heavy-track miss", "q cut-off",
               "gap crosses a run's end", "gap crosses a block"}
    fallback = {"light win", "q cut-off", "gap crosses a run's end"}
    assert events == {("mixture", b) for b in mixture} | {("fallback", b) for b in fallback}


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(1, 300), st.integers(0, 2**32))
def test_degree_sum_kernel_matches_scalar_sum_on_its_draws(g, samples, seed):
    if g.m_dir < 2:
        return
    oracle, twin = QueryOracle(g, seed=seed), QueryOracle(g, seed=seed)
    m_hat = _degree_sum_mc(oracle, samples)
    vertices = copy.deepcopy(twin._generator(twin.rng)).integers(g.n, size=samples)
    assert m_hat == max(1.0, 1.5 * g.n * sum(g.degree(v) for v in vertices.tolist()) / samples)
    assert counts_of(oracle) == {"vertex": samples, "degree": samples, "neighbor": 0, "pair": 0}
    assert oracle.rng.getstate() == twin.rng.getstate()


def degree_sum_pass(g, ids):
    """The scalar rule's pass over the given vertex ids: 1.5 n times their mean degree, at least 1."""
    return max(1.0, 1.5 * g.n * sum(g.degree(v) for v in ids) / len(ids))


@pytest.mark.parametrize("g", [
    HUBS,  # mean degree about 2: s < pilot_s
    build_graph([(2 * i, 2 * i + 1) for i in range(60)], 400),  # mean degree 0.3: s > pilot_s
], ids=["main pass shorter than the pilot", "main pass longer than the pilot"])
def test_degree_sum_estimate_replays_its_pool(g):
    # A fill is twin._generator(twin.rng).integers(n, size=...): one 256-bit
    # reseed of rng, for 2 pilot_s ids the first time and VERTEX_BLOCK after.
    # The pilot reads the next pilot_s ids of the fill, the main pass the s
    # after them; a pass that would run past the fill's end drops the
    # remainder and reads from the start of a new fill.
    n = g.n
    pilot_s = math.ceil(n / math.sqrt(n))
    crossed = set()
    for seed in range(5):
        oracle, twin, shadow = QueryOracle(g, seed=seed), QueryOracle(g, seed=seed), random.Random(seed)
        pool, at = [], 0
        for _ in range(300):  # several fills per seed
            before, refills = oracle.rng.getstate(), 0
            passes = []
            for size in (pilot_s, None):
                size = size or max(1, math.ceil(n / math.sqrt(passes[0])))
                if at + size > len(pool):
                    if at < len(pool):  # a nonempty remainder is dropped
                        crossed.add(("pilot", "main")[len(passes)])
                    fill = VERTEX_BLOCK if pool else 2 * pilot_s
                    pool, at, refills = twin._generator(twin.rng).integers(n, size=fill).tolist(), 0, refills + 1
                    shadow.getrandbits(128), shadow.getrandbits(128)
                passes.append(degree_sum_pass(g, pool[at:at + size]))
                at += size
            counts = oracle.counts.copy()
            assert estimate_edges_amplified(oracle, "degree-sum-mc").m_hat == passes[1]
            charged = asdict(oracle.counts - counts)  # size is now the main pass's s
            assert charged == {"vertex": pilot_s + size, "degree": pilot_s + size, "neighbor": 0, "pair": 0}
            assert oracle.rng.getstate() == twin.rng.getstate() == shadow.getstate()
            assert (oracle.rng.getstate() == before) is (refills == 0)  # a read within the fill draws nothing
    assert crossed == {"pilot", "main"}  # both passes have crossed into a new fill


@pytest.mark.parametrize("block", [VERTEX_BLOCK, 97])
def test_pooled_vertex_reads_are_uniform_and_independent(monkeypatch, block):
    # One oracle, 20,000 one-sample estimates: each reads one pooled id, across
    # many fills at the smaller block. On star(9) the centre alone gives
    # m_hat = 135. A pool that repeats its reads shows in the pair frequency.
    monkeypatch.setattr(oracle_module, "VERTEX_BLOCK", block)
    g, reads = star(9), 20000
    o = QueryOracle(g, seed=11)
    centre = [estimate_edges_amplified(o, "degree-sum-mc", samples=1).m_hat == 135.0 for _ in range(reads)]
    pairs = [a and b for a, b in zip(centre[::2], centre[1::2])]
    for hits, p in ((centre, 1 / 10), (pairs, 1 / 100)):
        assert abs(sum(hits) / len(hits) - p) < 4 * math.sqrt(p * (1 - p) / len(hits))
    assert o.counts.vertex == o.counts.degree == reads


def test_estimates_share_their_vertex_fills(monkeypatch):
    # An oracle's first estimate fills 2 pilot_s ids, what it needs. After it a
    # fill serves several estimates: 25 default estimates on 66,020 vertices
    # read about 10,000 ids, so they reseed about three times, not 25.
    fills = []

    class Recording:  # the generator a fill gets, recording the fill's size
        def __init__(self, gen):
            self.gen = gen

        def integers(self, n, size):
            fills.append(size)
            return self.gen.integers(n, size=size)

    real = QueryOracle._generator
    monkeypatch.setattr(QueryOracle, "_generator", lambda self, rng: Recording(real(self, rng)))
    g = hub_graph(20, 3300)
    o = no_methods(QueryOracle(g, seed=1))
    estimate_edges_amplified(o, "degree-sum-mc")
    assert fills == [2 * math.ceil(g.n / math.sqrt(g.n))]
    fills.clear()
    read = o.counts.vertex
    for _ in range(25):
        estimate_edges_amplified(o, "degree-sum-mc")
    read = o.counts.vertex - read
    assert 1 <= len(fills) <= math.ceil(read / VERTEX_BLOCK) + 1, (len(fills), read)
    assert set(fills) == {VERTEX_BLOCK}


def test_pool_reads_up_to_a_fills_end_and_refills_after_it(monkeypatch):
    # At a 12-id block: the first fill holds 2 x 6 ids, so a second 6-id pass
    # ends exactly at its end and draws nothing, and the pass after it refills.
    # The 20-id pass gets a fill of its own; the 6-id pass after 3 + 4 drops
    # the remainder of 5. Every pass is the scalar rule on the ids a twin
    # oracle's fills replay.
    monkeypatch.setattr(oracle_module, "VERTEX_BLOCK", 12)
    passes = (6, 6, 1, 11, 5, 7, 20, 3, 4, 6, 6)
    for seed in range(5):
        o, twin = QueryOracle(HUBS, seed=seed), QueryOracle(HUBS, seed=seed)
        pool, at, fills, refilled = [], 0, [], []
        for k in passes:
            if at + k > len(pool):
                size = max(k, 12) if pool else 2 * k
                pool, at = twin._generator(twin.rng).integers(HUBS.n, size=size).tolist(), 0
                fills.append(size)
            before = o.rng.getstate()
            assert _degree_sum_mc(o, k) == degree_sum_pass(HUBS, pool[at:at + k])
            refilled.append(o.rng.getstate() != before)
            assert o.rng.getstate() == twin.rng.getstate()
            at += k
        assert refilled == [True, False, True, False, True, False, True, True, False, True, False]
        assert fills == [12, 12, 12, 20, 12, 12]
        assert o.counts.vertex == o.counts.degree == sum(passes)


def estimates_and_pooled_runs(o, rounds):
    """``rounds`` of one default estimate and 200 pooled (kernel) runs on o: m_hat and the runs' columns."""
    return [(estimate_edges_amplified(o, "degree-sum-mc").m_hat,
             [column.tolist() for column in _runs(o, HUBS_CONFIG.theta, HUBS_CONFIG.q, 200, o.rng)])
            for _ in range(rounds)]


def test_interleaved_oracles_draw_what_each_draws_alone(monkeypatch):
    # One thread's numpy generator serves every oracle in it; each fill and each
    # kernel call resets it from its own rng and draws all it needs first. Two
    # oracles taking turns, across many fills at a 97-id block, each draw what
    # they draw alone.
    monkeypatch.setattr(oracle_module, "VERTEX_BLOCK", 97)
    a, b = QueryOracle(HUBS, seed=1), QueryOracle(HUBS, seed=2)
    turns = [(*estimates_and_pooled_runs(a, 1), *estimates_and_pooled_runs(b, 1)) for _ in range(30)]
    assert [x for x, _ in turns] == estimates_and_pooled_runs(QueryOracle(HUBS, seed=1), 30)
    assert [y for _, y in turns] == estimates_and_pooled_runs(QueryOracle(HUBS, seed=2), 30)


def test_two_threads_draw_what_they_draw_in_turn(monkeypatch):
    # Each thread has a numpy generator of its own: two threads, each with its
    # own oracle and switching as often as the interpreter allows, give the
    # results of running the two oracles one after the other.
    monkeypatch.setattr(oracle_module, "VERTEX_BLOCK", 97)
    want = [estimates_and_pooled_runs(QueryOracle(HUBS, seed=seed), 30) for seed in (1, 2)]
    got = [None, None]

    def work(i):
        got[i] = estimates_and_pooled_runs(QueryOracle(HUBS, seed=i + 1), 30)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_an_oracle_pickles_with_its_pool():
    # An oracle that has estimated carries its pool of degree sums: a pickled
    # copy reads on from the same place, and both draw the same from then on.
    o = QueryOracle(HUBS, seed=3)
    for _ in range(5):
        estimate_edges_amplified(o, "degree-sum-mc")
    twin = pickle.loads(pickle.dumps(o))
    assert estimates_and_pooled_runs(twin, 100) == estimates_and_pooled_runs(o, 100)
    assert twin.counts == o.counts and twin.rng.getstate() == o.rng.getstate()
    # Refills of one size write into the pool's array in place; it pickles all the same.
    pool, read = o._sums, o.counts.vertex
    while o.counts.vertex - read < 2 * VERTEX_BLOCK:
        estimate_edges_amplified(o, "degree-sum-mc")
    assert o._sums is pool and len(pool) == VERTEX_BLOCK + 1 and twin._sums is not pool
    twin = pickle.loads(pickle.dumps(o))
    assert estimates_and_pooled_runs(twin, 100) == estimates_and_pooled_runs(o, 100)
    assert twin.counts == o.counts and twin.rng.getstate() == o.rng.getstate()


def test_fills_leave_the_class_default_pool_empty():
    # Every oracle starts on the class's one empty pool. A fill gives the oracle an
    # array of its own, so neither oracle's fills reach the other's reads.
    a, b = QueryOracle(HUBS, seed=1), QueryOracle(HUBS, seed=2)
    got = [estimate_edges_amplified(o, "degree-sum-mc").m_hat for o in (a, b, a, b)]
    assert len(QueryOracle._sums) == 0
    assert len({id(a._sums), id(b._sums), id(QueryOracle._sums)}) == 3
    for seed, want in ((1, got[::2]), (2, got[1::2])):
        alone = QueryOracle(HUBS, seed=seed)
        assert [estimate_edges_amplified(alone, "degree-sum-mc").m_hat for _ in range(2)] == want


# ---------------------------------------------------------------------------
# The walk against the scalar rule, on the numbers it drew
# ---------------------------------------------------------------------------


class RecordingRandom(random.Random):
    """A ``random.Random`` that records every ``random()`` and ``getrandbits(k)`` it answers."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def random(self):
        value = super().random()
        self.calls.append(("random", value))
        return value

    def getrandbits(self, k):
        value = super().getrandbits(k)
        self.calls.append((("getrandbits", k), value))
        return value


def scalar_walk(g, theta, q, runs, calls, fallback, events):
    """The method loop's rule, attempt by attempt, on the walk's draws.

    Each proposal starts with a ``random()`` that sets the gap to it,
    ``1 + floor(log(1 - U) / log(1 - p))`` attempts with p = m_dir / (n
    theta); the attempts it skips are empty slots. A proposal past q ends
    the run. Otherwise ``getrandbits`` rejection picks a directed edge r for
    ``proposal``, with a ``random()`` coin (mixture only) and a
    ``getrandbits`` pick after a heavy-track hit on a heavy vertex. Returns
    the runs as (edge or None, attempts used) and the query counts;
    ``events`` gets each (mode, branch).
    """
    draws = iter(calls)

    def draw(name):
        call, value = next(draws)
        assert call == name
        return value

    def below(bound):
        k = bound.bit_length()
        value = draw(("getrandbits", k))
        while value >= bound:
            value = draw(("getrandbits", k))
        return value

    mode = "fallback" if fallback else "mixture"
    out, counts = [], {"vertex": 0, "degree": 0, "neighbor": 0, "pair": 0}
    charge = charger(counts, fallback)
    for _ in range(runs):
        used, edge = 0, None
        while edge is None:
            u, p = draw("random"), g.m_dir / (g.n * theta)
            gap = 1 if p == 1 else 1 + int(math.log(1.0 - u) / math.log1p(-p))
            if used + gap > q:
                charge(q - used, q - used, q - used)
                used = q
                events.add((mode, "q cut-off"))
                break
            charge(gap - 1, gap - 1, gap - 1)
            used += gap
            branch, edge = proposal(g, theta, below(g.m_dir), lambda: draw("random"), fallback, charge)
            if branch == "heavy-track win":
                edge = (edge[0], g.neighbor(edge[0], below(g.degree(edge[0])) + 1))
            events.add((mode, branch))
        out.append((edge, used))
    assert next(draws, None) is None, "the walk drew numbers it did not use"
    return out, counts


def walk_and_replay(g, theta, q, runs, seed, fallback=False, events=None):
    rng = RecordingRandom(seed)
    rows, tally = _walk(g, theta, q, runs, rng, fallback)
    got = [(None if o < 0 else (o, t), k) for o, t, k in rows]
    want = scalar_walk(g, theta, q, runs, rng.calls, fallback, set() if events is None else events)
    return (got, asdict(_charge(fallback, *tally))), want


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data(), st.integers(0, 2**63), st.integers(1, 40), st.booleans())
def test_walk_matches_scalar_rule_on_its_draws(g, data, seed, runs, fallback):
    theta = g.n if fallback else data.draw(st.integers(1, g.n + 2))
    if not 0 < g.m_dir <= g.n * theta:
        return  # the walk's precondition; other graphs take the method loop
    q = g.n if fallback else data.draw(st.one_of(st.integers(1, 2 * g.n + 1), st.just(sys.maxsize)))
    if q == sys.maxsize and attempt_distribution(g, theta).success_prob == 0:
        return  # a run that never gives up would never end
    got, want = walk_and_replay(g, theta, q, runs, seed, fallback)
    assert got == want


def test_walk_replay_reaches_every_branch():
    events = set()
    for g, theta in ((HUBS, 128), (STAR, 3), (KITE, 2)):
        for seed in range(3):
            for q in (3, 1000):
                got, want = walk_and_replay(g, theta, q, 200, seed, events=events)
                assert got == want
            got, want = walk_and_replay(g, g.n, g.n, 200, seed, fallback=True, events=events)
            assert got == want
    mixture = {"thinned", "heavy start", "light win", "heavy-track win", "heavy-track miss", "q cut-off"}
    assert events == {("mixture", b) for b in mixture} | {("fallback", "light win"), ("fallback", "q cut-off")}


# ---------------------------------------------------------------------------
# The walk's distribution against the exact one
# ---------------------------------------------------------------------------


def cell(g, theta, e):
    """Edges of a small graph one by one; else by heavy origin (or any light one) and whether the target is heavy."""
    if g.m_dir <= 64:
        return e
    return (e[0] if g.degree(e[0]) > theta else -1, g.degree(e[1]) > theta)


@pytest.mark.parametrize("g, theta, q, fallback, bins", [
    (HUBS, 128, 200, False, [0, 8, 24, 48, 80, 120, 160, 199, 200]),
    (KITE, 2, 4, False, [0, 1, 2, 3, 4]),
    (path(30), 30, 30, True, [0, 2, 5, 10, 15, 22, 29, 30]),
], ids=["hubs", "kite", "fallback"])
def test_walk_law_matches_exact_values(g, theta, q, fallback, bins):
    # Single runs take the walk, calls of 100 runs the kernel: each is held to the same law.
    for per_call in (1, 100):
        law_matches_exact_values(g, theta, q, fallback, bins, per_call)


def law_matches_exact_values(g, theta, q, fallback, bins, per_call):
    runs, o = 20000, QueryOracle(g, seed=11)
    dist = attempt_distribution(g, theta)
    s = dist.success_prob * (2 if fallback else 1)  # the fallback's attempt has no coin
    columns, charges = [], []
    for _ in range(runs // per_call):
        before = o.counts.copy()
        columns.append(_runs(o, theta, q, per_call, o.rng, fallback))
        counts = o.counts - before
        charges.append((counts.vertex / per_call, counts.degree / per_call, counts.neighbor / per_call))
    origins, targets, used = map(np.concatenate, zip(*columns))
    # attempts used: geometric in s, truncated at q (a failed run uses all q)
    cdf = [1 - (1 - float(s)) ** b if b < q else 1.0 for b in bins]
    expected = runs * np.diff(cdf)
    observed = np.histogram(used, bins=np.array(bins) + 0.5)[0]
    assert observed.sum() == runs
    assert np.abs((observed - expected) / np.sqrt(expected)).max() < 4, (observed.tolist(), expected.round().tolist())
    failure = float((1 - s) ** q)
    assert abs(np.mean(origins < 0) - failure) < 4 * math.sqrt(failure * (1 - failure) / runs)
    # the returned edges: on the support, with the exact conditional frequencies per cell
    conditional = dist.conditional()
    wins = [(o, t) for o, t in zip(origins.tolist(), targets.tolist()) if o >= 0]
    assert all(conditional.get(e, 0) > 0 for e in wins)
    want, got = {}, {}
    for e, p in conditional.items():
        want[cell(g, theta, e)] = want.get(cell(g, theta, e), 0) + float(p)
    for e in wins:
        got[cell(g, theta, e)] = got.get(cell(g, theta, e), 0) + 1
    for c, p in want.items():
        assert abs(got.get(c, 0) / len(wins) - p) < 4 * math.sqrt(p * (1 - p) / len(wins)), c
    # charges per run: by Wald's identity, E[attempts] times the charges of one attempt
    n, heavy = g.n, dist.heavy
    unit = Fraction(1, 2 * n * theta)
    per_attempt = (
        1,
        0 if fallback else 1 + dist.e_light * unit,  # every degree query, plus the heavy track's on a hit
        1 - Fraction(len(heavy), n) + sum(dl for dl, _ in heavy.values()) * unit,  # no slot on a heavy start; a pick
    )
    mean_attempts = (1 - (1 - s) ** q) / s
    for k, per in enumerate(per_attempt):
        column = np.array([c[k] for c in charges], float)
        exact = float(mean_attempts * per)
        assert abs(column.mean() - exact) <= 4 * column.std() / math.sqrt(len(column)), (k, column.mean(), exact)


class CountingRandom(random.Random):
    """A ``random.Random`` that counts the numbers it is asked for."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_walk_costs_a_few_draws_a_run_however_many_attempts_it_skips():
    # The paper's run makes about 2 n theta / m_dir attempts; the walk draws
    # only at the few that reach an edge slot. Per-attempt work would show
    # up here as hundreds of draws a run, with no clock involved.
    g = hub_graph(20, 3000)
    cfg = SamplerConfig.for_graph(g.n, float(g.m_dir), 0.25)
    o, rng = QueryOracle(g, seed=1), CountingRandom(2)
    reports = [sample_edge_almost_uniformly(o, cfg, rng) for _ in range(500)]
    attempts = sum(r.attempts_used for r in reports) / len(reports)
    assert attempts > 800
    assert rng.calls / len(reports) < 20, (rng.calls / len(reports), attempts)


# ---------------------------------------------------------------------------
# The kernel's distribution against the exact one, on the 5-hub graph
# ---------------------------------------------------------------------------


def test_kernel_attempts_and_heavy_share_match_exact_values():
    runs, theta, q = 20000, HUBS_CONFIG.theta, HUBS_CONFIG.q
    dist = attempt_distribution(HUBS, theta)
    s = float(dist.success_prob)  # 2000 / 257280: 1/s is about 128.6
    oracle = QueryOracle(HUBS, seed=8)
    origins, _, used = _runs(oracle, theta, q, runs, oracle.rng)
    # attempts used: geometric in s, truncated at q (a failed run uses all q)
    edges = [0, 8, 24, 48, 80, 120, 160, q - 1, q]  # bins (a, b]
    cdf = [1 - (1 - s) ** b if b < q else 1.0 for b in edges]
    expected = [runs * (hi - lo) for lo, hi in zip(cdf, cdf[1:])]
    observed = np.histogram(used, bins=np.array(edges) + 0.5)[0]
    assert observed.sum() == runs
    z = (observed - expected) / np.sqrt(expected)
    assert np.abs(z).max() < 4, (observed.tolist(), [round(e) for e in expected])
    failure = (1 - s) ** q
    observed_failure = float(np.mean(origins < 0))
    assert abs(observed_failure - failure) < 4 * math.sqrt(failure * (1 - failure) / runs)
    # heavy origins: the five hubs, with exact share sum(d_L) / weight among wins
    heavy_share = sum(dl for dl, _ in dist.heavy.values()) / dist.weight
    wins = origins[origins >= 0]
    observed_share = float(np.mean(wins < 5))
    assert abs(observed_share - heavy_share) < 4 * math.sqrt(heavy_share * (1 - heavy_share) / len(wins))
    assert oracle.counts.vertex == used.sum()
