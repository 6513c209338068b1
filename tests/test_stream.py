"""The samplers' two paths against literal references.

The method loop (every oracle but a plain unbudgeted one) draws vertices,
slots and neighbour indices by inline ``getrandbits`` rejection. The
reference below is the procedure as written in the paper: one call of
``rng.random()``, ``oracle.rng.randrange(n)`` or ``rng.randint(...)`` per
draw, and one metered oracle call per query. Both are run from the same
seeds and must agree on the outcome, the attempts used, every query
counter, the query at which a budget runs out, and the generator states
afterwards.

On a plain unbudgeted oracle the numpy kernel draws blocks of attempts
instead. Its outcomes, attempts and query counts must equal the scalar
rule applied, attempt by attempt, to the numbers it drew (replayed from a
copy of its generator), and their distribution must match the exact one.
"""

import copy
import math
import random
import sys
from dataclasses import asdict
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
    estimate_edges,
    sample_edge_almost_uniformly,
)
from edgesample.estimate import _degree_sum_mc
from edgesample.generators import star
from edgesample.graph import RelabeledView, build_graph
from edgesample.sampler import _NARROW, _kernel, _runs

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
# Which oracles the kernels read around
# ---------------------------------------------------------------------------

HUBS = hub_graph(5, 200)  # theta 128 at m_hat = m_dir: the five hubs are heavy
HUBS_CONFIG = SamplerConfig(theta=128, q=200)


def test_plain_unbudgeted_oracle_never_calls_its_methods():
    def no_methods(oracle):
        def refuse(*args):
            raise AssertionError("a kernel called an oracle method")

        oracle.random_vertex = oracle.degree = oracle.neighbor = refuse
        return oracle

    def draws(seed, separate_rng):
        o = no_methods(QueryOracle(HUBS, seed=seed))
        rng = random.Random(seed + 1) if separate_rng else o.rng
        result = (
            estimate_edges(o, "degree-sum-mc").m_hat,
            [report_tuple(sample_edge_almost_uniformly(o, HUBS_CONFIG, rng)) for _ in range(5)],
            [column.tolist() for column in _runs(o, HUBS_CONFIG.theta, HUBS_CONFIG.q, 20, rng)],
        )
        return result, counts_of(o), o.rng.getstate(), rng.getstate()

    for seed in range(5):
        for separate_rng in (False, True):
            first = draws(seed, separate_rng)
            assert first[1]["vertex"] > 0
            assert draws(seed, separate_rng) == first


@pytest.mark.parametrize("theta", [2**62, 2**64])
def test_theta_past_the_kernels_draw_takes_the_method_loop(theta):
    # n theta > 2^63 does not fit the kernel's one draw per block: a plain
    # oracle then runs as a budgeted one does, and neither raises.
    cfg = SamplerConfig(theta=theta, q=40)
    sides = []
    for budget in (None, 10**6):
        o = QueryOracle(star(50), seed=1, budget=budget)
        report = sample_edge_almost_uniformly(o, cfg)
        sides.append((report_tuple(report), counts_of(o), asdict(report.queries), o.rng.getstate()))
    assert sides[0] == sides[1]
    assert sides[0][0] == (None, 40)


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
    (lambda o: estimate_edges(o, "degree-sum-mc").m_hat, lambda o: ref_degree_sum(o, None)),
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
            lambda o, rng: (estimate_edges(o, "degree-sum-mc").m_hat,
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


def test_small_calls_on_a_plain_oracle_take_the_method_loop():
    # One attempt, or one run expecting 4 attempts, is cheaper through the
    # methods than through a kernel block: a plain oracle then draws exactly
    # as a subclassed one and never builds its numpy generator.
    def calls(o):
        return (
            [sample_edge_almost_uniformly(o, SamplerConfig(STAR_CONFIG.theta, 1)).outcome for _ in range(20)],
            [report_tuple(sample_edge_almost_uniformly(o, STAR_CONFIG)) for _ in range(5)],
        )

    for seed in range(5):
        plain, loop = QueryOracle(STAR, seed=seed), MethodLoopOracle(STAR, seed=seed)
        assert calls(plain) == calls(loop)
        assert counts_of(plain) == counts_of(loop)
        assert plain.rng.getstate() == loop.rng.getstate()
        assert plain._gen is None


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
    ``divmod(w, theta)``. A narrow one (at most ``_NARROW`` candidates,
    occupied slots and heavy starts, plus runs that can give up in it) then
    draws, in attempt order and up to the last run the call needs, a scalar
    ``random()`` coin per occupied slot of a light start (mixture only) and
    a scalar ``integers(d(v))`` pick right after each heavy-track win. A
    wide one draws one coin array over all its occupied slots of light
    starts (mixture only), then one pick array over the heavy-track wins it
    keeps. Returns the runs as (edge or None, attempts used) and the query
    counts; ``events`` gets each (kind of block, branch) taken.
    """
    out, counts, used, kinds = [], {"vertex": 0, "degree": 0, "neighbor": 0, "pair": 0}, 0, []

    def scalar(name, *args):
        call, value = next(draws)
        assert call == (name, args, {})
        return value

    while len(out) < runs:
        (name, (bound,), _), w = next(draws)
        assert (name, bound) == ("integers", g.n * theta)
        u, j = np.divmod(w, theta)
        candidates = [i for i in range(len(u)) if j[i] < g.degree(u[i])]
        kind = "narrow block" if len(candidates) + len(u) // q <= _NARROW else "wide block"
        kinds.append(kind)
        hits = [i for i in candidates if g.degree(u[i]) <= theta]
        if fallback:
            coin = dict.fromkeys(hits, True)
        elif kind == "wide block":
            (name, (k,), _), coins = next(draws)
            assert (name, k) == ("random", len(hits))
            coin = dict(zip(hits, (coins < 0.5).tolist()))
        else:
            coin = None  # drawn one at a time, as the walk reaches each hit
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
                elif coin[i] if coin is not None else scalar("random") < 0.5:
                    branch, edge = "light hit", (int(u[i]), v)
                else:
                    counts["degree"] += 1
                    if g.degree(v) <= theta:
                        branch = "heavy hit onto a light vertex"
                    else:
                        counts["neighbor"] += 1
                        branch, edge = "heavy pick", (v, None)
                        if kind == "narrow block":
                            edge = (v, g.neighbor(v, scalar("integers", g.degree(v)) + 1))
                        else:
                            heavy_wins.append(len(out))
            events.add((kind, branch))
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
    if "wide block" in kinds and "narrow block" in kinds[kinds.index("wide block"):]:
        events.add("narrow blocks after wide ones")
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


def test_kernel_replay_reaches_every_branch():
    # At theta 2, centre 0 is heavy and the path 1-2-3 hanging off it light.
    kite = build_graph([(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (0, 6)], 7)
    # 25 runs make narrow blocks only; 400 pooled runs make a wide block,
    # then narrow ones for the last few runs when q leaves room for them.
    events = set()
    for g, theta in ((HUBS, 128), (STAR, 3), (kite, 2)):
        for seed in range(3):
            for runs, q in ((25, 40), (400, 40), (400, 1000)):
                got, want = kernel_and_replay(g, theta, q, runs, seed, events=events)
                assert got == want
    branches = {"heavy start", "empty slot", "light hit", "heavy hit onto a light vertex", "heavy pick"}
    kinds = {"narrow block", "wide block"}
    assert events == {(kind, branch) for kind in kinds for branch in branches} | {"narrow blocks after wide ones"}


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
        m_hat = estimate_edges(oracle, "degree-sum-mc").m_hat
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
