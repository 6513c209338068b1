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
other numbers. Pooled calls take the numpy kernel, which draws blocks of
attempts; the rest take the walk, which skips to the attempts that reach
an edge slot. Each path's outcomes, attempts and query counts must equal
the scalar rule applied, attempt by attempt, to the numbers it drew
(replayed from a copy of its generator), and their distribution must
match the exact one.
"""

import copy
import math
import random
import sys
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
from edgesample import sampler
from edgesample.sampler import _kernel, _plan, _runs, _walk

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
    # HUBS at theta 128 expects 128 attempts a run: 20 runs cost less walked, 200 pooled in numpy
    taken = []
    for name in ("_kernel", "_walk"):
        real = getattr(sampler, name)
        monkeypatch.setattr(sampler, name, lambda *args, real=real, name=name: taken.append(name) or real(*args))
    o = QueryOracle(HUBS, seed=1)
    for runs in (1, 20, 200):
        _runs(o, HUBS_CONFIG.theta, HUBS_CONFIG.q, runs, o.rng)
    assert taken == ["_walk", "_walk", "_kernel"]


@pytest.mark.parametrize("theta", [2**62, 2**64])
def test_theta_past_the_kernels_draw_takes_the_walk(theta):
    # n theta > 2^63 does not fit the kernel's one draw per block, but the
    # walk's gaps do not depend on it: a plain oracle walks, a budgeted one
    # takes the method loop, and both give up after q empty slots.
    cfg = SamplerConfig(theta=theta, q=40)
    walked, looped = no_methods(QueryOracle(star(50), seed=1)), QueryOracle(star(50), seed=1, budget=10**6)
    sides = [(report_tuple(r), counts_of(o), asdict(r.queries))
             for o in (walked, looped) for r in [sample_edge_almost_uniformly(o, cfg)]]
    assert sides[0] == sides[1]
    assert sides[0][0] == (None, 40)
    assert sides[0][1] == {"vertex": 40, "degree": 40, "neighbor": 40, "pair": 0}
    assert walked._gen is None


@pytest.mark.parametrize("g, theta", [
    (build_graph([], 6), 3),  # edgeless: no slot to propose
    (erdos_renyi(30, 0.3, 1), 1),  # m_dir > n theta: more than one proposal an attempt
    (star(50), 10**400),  # p = m_dir / (n theta) is 0.0 as a float: no finite gap
], ids=["edgeless", "m_dir above n theta", "p below 2^-64"])
def test_graphs_the_walk_cannot_skip_take_the_method_loop(g, theta):
    assert not 0 < g.m_dir <= g.n * theta < g.m_dir << 64
    for seed in range(3):
        for cfg in (SamplerConfig(theta, 1), SamplerConfig(theta, 7)):
            plain, loop = QueryOracle(g, seed=seed), MethodLoopOracle(g, seed=seed)
            calls = [[report_tuple(sample_edge_almost_uniformly(o, cfg)) for _ in range(5)] for o in (plain, loop)]
            assert calls[0] == calls[1]
            assert counts_of(plain) == counts_of(loop)
            assert plain.rng.getstate() == loop.rng.getstate()
            assert plain._gen is None


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
    # numpy generator is never built, and the outcomes keep the exact law.
    dist = attempt_distribution(STAR, STAR_CONFIG.theta)
    s, support = float(dist.success_prob), {e for e, p in dist.per_edge.items() if p > 0}
    o = no_methods(QueryOracle(STAR, seed=3))
    singles = [sample_edge_almost_uniformly(o, SamplerConfig(STAR_CONFIG.theta, 1)) for _ in range(4000)]
    runs = [sample_edge_almost_uniformly(o, STAR_CONFIG) for _ in range(4000)]
    assert o._gen is None
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

    o = QueryOracle(HUBS, seed=1)
    monkeypatch.setattr(sampler.np, "array", refuse)
    reports = [sample_edge_almost_uniformly(o, cfg) for cfg in (HUBS_CONFIG, FALLBACK_CONFIG) for _ in range(200)]
    monkeypatch.undo()
    assert o._gen is None and sum(r.attempts_used for r in reports) == o.counts.vertex
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


def scalar_runs(g, theta, q, runs, draws, fallback, events):
    """The method loop's rule, attempt by attempt, on the kernel's draws.

    ``draws`` yields the kernel's calls in order. A block starts with one
    ``integers(n * theta)`` draw, split into vertices and slots by
    ``divmod(w, theta)``, then draws one coin array over all its occupied
    slots of light starts (mixture only), then one pick array over the
    heavy-track wins it keeps. Returns the runs as (edge or None, attempts
    used) and the query counts; ``events`` gets each branch taken.
    """
    out, counts, used = [], {"vertex": 0, "degree": 0, "neighbor": 0, "pair": 0}, 0
    while len(out) < runs:
        (name, (bound,), _), w = next(draws)
        assert (name, bound) == ("integers", g.n * theta)
        u, j = np.divmod(w, theta)
        hits = [i for i in range(len(u)) if j[i] < g.degree(u[i]) <= theta]
        if fallback:
            coin = dict.fromkeys(hits, True)
        else:
            (name, (k,), _), coins = next(draws)
            assert (name, k) == ("random", len(hits))
            coin = dict(zip(hits, (coins < 0.5).tolist()))
        heavy_wins = []
        for i in range(len(u)):
            if len(out) == runs:
                break
            used += 1
            counts["vertex"] += 1
            counts["degree"] += not fallback
            edge, branch = None, None
            if g.degree(u[i]) > theta:
                branch = "heavy start"
            else:
                counts["neighbor"] += 1
                v = g.neighbor(int(u[i]), int(j[i]) + 1)
                if v is None:
                    branch = "empty slot"
                elif coin[i]:
                    branch, edge = "light hit", (int(u[i]), v)
                else:
                    counts["degree"] += 1
                    if g.degree(v) <= theta:
                        branch = "heavy hit onto a light vertex"
                    else:
                        counts["neighbor"] += 1
                        branch, edge = "heavy pick", (v, None)
                        heavy_wins.append(len(out))
            events.add(branch)
            if edge is not None or used == q:
                out.append((edge, used))
                used = 0
        if heavy_wins:
            (name, (highs,), _), picks = next(draws)
            origins = [out[r][0][0] for r in heavy_wins]
            assert highs.tolist() == [g.degree(v) for v in origins]
            for r, v, i in zip(heavy_wins, origins, picks.tolist()):
                out[r] = ((v, g.neighbor(v, i + 1)), out[r][1])
    assert next(draws, None) is None, "the kernel drew numbers it did not use"
    return out, counts


def kernel_and_replay(g, theta, q, runs, seed, fallback=False, events=None):
    gen = np.random.Generator(np.random.PCG64(seed))
    twin = copy.deepcopy(gen)
    recorder = Recorder(gen)
    origins, targets, used, counts = _kernel(g, theta, q, runs, recorder, fallback)
    draws = ((call, getattr(twin, call[0])(*call[1], **call[2])) for call in recorder.calls)
    got = [(None if o < 0 else (o, t), k) for o, t, k in zip(origins.tolist(), targets.tolist(), used.tolist())]
    return (got, asdict(counts)), scalar_runs(g, theta, q, runs, draws, fallback, set() if events is None else events)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data(), st.integers(0, 2**63), st.integers(1, 40), st.booleans())
def test_kernel_matches_scalar_rule_on_its_draws(g, data, seed, runs, fallback):
    if g.m_dir == 0:
        return
    theta = g.n if fallback else data.draw(st.integers(1, g.n + 2))
    q = g.n if fallback else data.draw(st.one_of(st.integers(1, 2 * g.n + 1), st.just(sys.maxsize)))
    if q == sys.maxsize and attempt_distribution(g, theta).success_prob == 0:
        return  # a run that never gives up would never end
    got, want = kernel_and_replay(g, theta, q, runs, seed, fallback)
    assert got == want


KITE = build_graph([(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (0, 6)], 7)  # at theta 2: centre 0 heavy, the rest light


def test_kernel_replay_reaches_every_branch():
    # 25 runs make one block; 400 pooled runs several when q leaves room.
    events = set()
    for g, theta in ((HUBS, 128), (STAR, 3), (KITE, 2)):
        for seed in range(3):
            for runs, q in ((25, 40), (400, 40), (400, 1000)):
                got, want = kernel_and_replay(g, theta, q, runs, seed, events=events)
                assert got == want
    assert events == {"heavy start", "empty slot", "light hit", "heavy hit onto a light vertex", "heavy pick"}


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


@pytest.mark.parametrize("g, main_fits", [
    (HUBS, True),  # mean degree about 2: s <= pilot_s
    (build_graph([(2 * i, 2 * i + 1) for i in range(60)], 400), False),  # mean degree 0.3: s > pilot_s
], ids=["main pass in the pilot's draw", "main pass draws again"])
def test_degree_sum_estimate_replays_both_passes_from_its_draws(g, main_fits):
    n = g.n
    pilot_s = math.ceil(n / math.sqrt(n))
    for seed in range(20):
        oracle, twin = QueryOracle(g, seed=seed), QueryOracle(g, seed=seed)
        m_hat = estimate_edges_amplified(oracle, "degree-sum-mc").m_hat
        gen = twin._generator(twin.rng)
        degrees = [g.degree(v) for v in gen.integers(n, size=2 * pilot_s).tolist()]
        pilot = max(1.0, 1.5 * n * sum(degrees[:pilot_s]) / pilot_s)
        s = max(1, math.ceil(n / math.sqrt(pilot)))
        assert (s <= pilot_s) is main_fits
        main = degrees[pilot_s:pilot_s + s] if main_fits else [g.degree(v) for v in gen.integers(n, size=s).tolist()]
        assert m_hat == max(1.0, 1.5 * n * sum(main) / s)
        assert counts_of(oracle) == {"vertex": pilot_s + s, "degree": pilot_s + s, "neighbor": 0, "pair": 0}
        assert oracle.rng.getstate() == twin.rng.getstate()
        assert oracle._gen.bit_generator.state == gen.bit_generator.state  # it drew nothing more


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
    the run. Otherwise ``getrandbits`` rejection picks a directed edge r,
    read as slot r - o[x] of its origin x: past slot theta it is thinned
    into an empty slot, else the attempt starts at x, with a ``random()``
    coin on an occupied slot (mixture only) and a ``getrandbits`` pick after
    a heavy-track hit on a heavy vertex. Returns the runs as (edge or None,
    attempts used) and the query counts; ``events`` gets each (mode, branch).
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
    origins = np.repeat(np.arange(g.n), np.diff(g.offsets)).tolist()
    out, counts = [], {"vertex": 0, "degree": 0, "neighbor": 0, "pair": 0}

    def charge(vertex, degree, neighbor):
        counts["vertex"] += vertex
        counts["degree"] += 0 if fallback else degree
        counts["neighbor"] += neighbor

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
            r = below(g.m_dir)
            x = origins[r]
            j = r - int(g.offsets[x])
            if j >= theta:
                branch = "thinned"
                charge(1, 1, 1)
            elif g.degree(x) > theta:
                branch = "heavy start"
                charge(1, 1, 0)
            else:
                charge(1, 1, 1)
                v = g.neighbor(x, j + 1)
                if fallback or draw("random") < 0.5:
                    branch, edge = "light win", (x, v)
                elif g.degree(v) <= theta:
                    branch = "heavy-track miss"
                    charge(0, 1, 0)
                else:
                    branch, edge = "heavy-track win", (v, g.neighbor(v, below(g.degree(v)) + 1))
                    charge(0, 1, 1)
            events.add((mode, branch))
        out.append((edge, used))
    assert next(draws, None) is None, "the walk drew numbers it did not use"
    return out, counts


def walk_and_replay(g, theta, q, runs, seed, fallback=False, events=None):
    rng = RecordingRandom(seed)
    rows, counts = _walk(g, theta, q, runs, rng, fallback)
    got = [(None if o < 0 else (o, t), k) for o, t, k in rows]
    want = scalar_walk(g, theta, q, runs, rng.calls, fallback, set() if events is None else events)
    return (got, asdict(counts)), want


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
    runs, rng = 20000, random.Random(11)
    dist = attempt_distribution(g, theta)
    s = dist.success_prob * (2 if fallback else 1)  # the fallback's attempt has no coin
    rows, charges = [], []
    for _ in range(runs):
        (row,), counts = _walk(g, theta, q, 1, rng, fallback)
        rows.append(row)
        charges.append((counts.vertex, counts.degree, counts.neighbor))
    origins, targets, used = map(np.array, zip(*rows))
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
        assert abs(column.mean() - exact) <= 4 * column.std() / math.sqrt(runs), (k, column.mean(), exact)


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
