import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesample import BudgetExceeded, QueryOracle, RelabeledView, build_graph, experiments
from edgesample.experiments import (
    BlindGuessStrategy,
    GreedyPairStrategy,
    TruncatedSamplerStrategy,
    clique_size_for,
    default_budgets,
    planted_union,
    run_lower_bound,
    run_scaling,
)
from edgesample.generators import erdos_renyi, generate, path

from conftest import adjacency


def test_clique_size_reaches_half_the_edges():
    for spec, seed in [("er:100,0.1", 1), ("er:400,0.02", 2), ("path:30", 0), ("star:17", 0)]:
        base = generate(spec, seed=seed)
        k = clique_size_for(base)
        assert k * (k - 1) >= base.m_dir
        assert (k - 1) * (k - 2) < base.m_dir  # minimal such k
        union, clique_ids = planted_union(base, k)
        assert len(clique_ids) == k
        assert union.m_dir == base.m_dir + k * (k - 1)
        assert k * (k - 1) >= union.m_dir / 2


def test_planted_union_concatenates_base_and_clique_rows():
    for spec, seed in [("er:5000,0.004", 1), ("er:100,0.1", 1), ("path:30", 0), ("star:17", 0), ("cycle:9", 0)]:
        base = generate(spec, seed=seed)
        k = clique_size_for(base)
        union, clique_ids = planted_union(base, k)
        union.validate()
        assert clique_ids == frozenset(range(base.n, base.n + k))
        assert adjacency(union)[: base.n] == adjacency(base)
        assert all(union.neighbors(c) == tuple(sorted(clique_ids - {c})) for c in clique_ids)
        # base's edges in their order, then the clique's pairs ascending: clique_union relabels this array
        edges = np.concatenate([base.edge_array(), np.column_stack(np.triu_indices(k, 1)) + base.n])
        assert np.array_equal(union.edge_array(), edges)
        if spec != "cycle:9":  # rows in ascending order: rebuilding from the edge list keeps them
            rebuilt = build_graph(edges, base.n + k)
            assert np.array_equal(union.offsets, rebuilt.offsets)
            assert np.array_equal(union.targets, rebuilt.targets)


def test_default_budgets_bracket_the_transition():
    budgets = default_budgets(2000, 40000)
    assert budgets == sorted(budgets)
    assert budgets[0] >= 1
    assert budgets[-1] == math.ceil(10 * 2000 / math.sqrt(40000))


def test_scaling_needs_enough_trials():
    with pytest.raises(ValueError):
        run_scaling(["er:100,0.1"], 0.25, trials=5, seed=0)


def test_scaling_runs_and_slope():
    specs = ["er:256,0.0625", "er:512,0.03125", "er:1024,0.015625"]
    # 200 trials: at 60 the slope's spread (sd about 0.25) put about 2% of seeds under 0.5
    result = run_scaling(specs, 0.25, trials=200, seed=3)
    assert len(result.runs) == 3
    for r in result.runs:
        assert r.mean_queries > 0
        assert 0 <= r.failure_rate <= 1
        assert r.failure_rate < 1 / 3 + 3 * math.sqrt((1 / 3) * (2 / 3) / r.trials)
    assert 0.5 < result.slope < 1.5  # loose here; the acceptance suite pins [0.8, 1.2]


def test_scaling_epsilon_cost_ratio():
    # halving epsilon should raise mean queries by about sqrt(2)
    spec = ["er:1024,0.015625"]
    hi = run_scaling(spec, 0.5 - 1e-9, trials=400, seed=7).runs[0]
    lo = run_scaling(spec, 0.25 - 5e-10, trials=400, seed=8).runs[0]
    ratio = lo.mean_queries / hi.mean_queries
    assert abs(ratio - math.sqrt(2)) < 0.2 * math.sqrt(2)


def marked_view(graph, marked, perm=None):
    """A view of ``graph`` (by default under the identity perm) that marks ``marked``."""
    view = RelabeledView(graph, list(range(graph.n)) if perm is None else perm)
    view.marked = marked
    return view


def test_view_flags_only_marked_touches():
    base = path(4)
    union, clique_ids = planted_union(base, 3)  # clique ids 4, 5, 6
    view = marked_view(union, frozenset(clique_ids))
    o = QueryOracle(view, seed=0)
    o.degree(0)
    o.neighbor(1, 1)
    o.pair(0, 4)  # pair query witnesses only when BOTH endpoints are clique ids
    o.pair(4, 4)  # ... and they are distinct
    assert not view.witnessed
    o.degree(4)
    assert view.witnessed
    view2 = marked_view(union, frozenset(clique_ids))
    QueryOracle(view2, seed=0).pair(4, 5)
    assert view2.witnessed
    view3 = marked_view(union, frozenset(clique_ids))
    QueryOracle(view3, seed=0).neighbor(5, 1)
    assert view3.witnessed
    refused = marked_view(union, frozenset(clique_ids))
    with pytest.raises(BudgetExceeded):  # a query the budget refuses witnesses nothing
        QueryOracle(refused, seed=0, budget=0).degree(4)
    assert not refused.witnessed


def test_run_lower_bound_rejects_negative_budgets():
    with pytest.raises(ValueError, match="budgets must be >= 0"):
        run_lower_bound("er:200,0.05", budgets=[0, -3], trials=5, seed=1)
    rows = run_lower_bound("er:200,0.05", budgets=[0], trials=5, seed=1)
    assert [r.budget for r in rows] == [0, 0, 0]
    assert all(r.witness_rate == 0 for r in rows)  # no query can be made


def test_budget_meter_truncates_strategies():
    base = erdos_renyi(60, 0.15, seed=2)
    k = clique_size_for(base)
    union, clique_ids = planted_union(base, k)
    o = QueryOracle(marked_view(union, frozenset(clique_ids)), seed=1, budget=3)
    strategy = TruncatedSamplerStrategy(0.25)
    with pytest.raises(BudgetExceeded):
        while True:
            strategy.run(o, 3, o.rng)
    assert o.counts.total == 3


def test_greedy_pairs_returns_real_edges_only():
    base = erdos_renyi(80, 0.1, seed=4)
    k = clique_size_for(base)
    union, clique_ids = planted_union(base, k)
    strategy = GreedyPairStrategy()
    returned = 0
    for seed in range(30):
        o = QueryOracle(marked_view(union, frozenset(clique_ids)), seed=seed, budget=120)
        try:
            answer = strategy.run(o, 120, o.rng)
        except BudgetExceeded:
            answer = None
        if answer is not None:
            returned += 1
            assert union.has_edge(*answer)
        assert o.counts.total <= 120
    assert returned > 0


class MeterReadingGreedy(GreedyPairStrategy):
    """The strategy as it reads the oracle's meter before every query."""

    def run(self, oracle, budget, rng):
        probe_budget = (2 * budget) // 3
        seen = {}
        while oracle.counts.total + 2 <= probe_budget:
            v = oracle.random_vertex()
            seen[v] = oracle.degree(v)
        ranked = sorted(seen, key=seen.get, reverse=True)
        for i in range(len(ranked)):
            for j in range(i + 1, len(ranked)):
                if oracle.counts.total >= budget:
                    return None
                if oracle.pair(ranked[i], ranked[j]):
                    return (ranked[i], ranked[j])
        return None


@pytest.mark.parametrize("spent", [0, 1, 7])
def test_greedy_pairs_counts_its_queries_as_the_meter_does(spent):
    # Counting locally from one read of the meter takes the same steps, even
    # on an oracle that has already spent queries or runs out mid-strategy.
    base = erdos_renyi(80, 0.1, seed=4)
    union, _ = planted_union(base, clique_size_for(base))
    for seed in range(10):
        for budget in (1, 2, 5, 12, 40, 120):
            sides = []
            for strategy in (GreedyPairStrategy(), MeterReadingGreedy()):
                view = marked_view(union, range(base.n, union.n), random.Random(seed))
                o = QueryOracle(view, seed=seed, budget=budget + spent)
                for _ in range(spent):
                    o.random_vertex()
                try:
                    answer = strategy.run(o, budget + spent, o.rng)
                except BudgetExceeded:
                    answer = "budget"
                sides.append((answer, o.counts, view.witnessed, o.rng.getstate(), view._old))
            assert sides[0] == sides[1]


def test_lower_bound_run_shapes_and_certificate():
    runs = run_lower_bound("er:150,0.06", trials=150, seed=5, budgets=[1, 40])
    assert {r.strategy for r in runs} == {"truncated-sampler", "greedy-pairs", "blind-guess"}
    for r in runs:
        assert 0.0 <= r.clique_hit_rate <= 1.0
        assert 0.0 <= r.witness_rate <= 1.0
        assert r.tv_lower_estimate == max(0.0, 0.5 - r.clique_hit_rate)
        assert r.e_k_dir >= r.m_dir / 2
    # at budget 1 nothing can be witnessed (a vertex query is not a witness)
    tiny = [r for r in runs if r.budget == 1]
    assert all(r.witness_rate == 0.0 for r in tiny)
    blind_tiny = [r for r in tiny if r.strategy == "blind-guess"][0]
    assert blind_tiny.tv_lower_estimate >= 0.3


def test_witness_rate_within_envelope():
    # 4 k t / n plus Monte Carlo slack bounds the witness rate of any strategy
    trials = 300
    runs = run_lower_bound("er:120,0.08", trials=trials, seed=6, budgets=[1, 5])
    for r in runs:
        envelope = 4.0 * r.k * r.budget / r.n
        sigma = math.sqrt(max(r.witness_rate * (1 - r.witness_rate), 1e-9) / trials)
        assert r.witness_rate <= envelope + 3 * sigma


def test_tv_estimate_trend_is_flagged_not_failed(capsys):
    # more budget should not raise the certified TV bound on average; a
    # violation is reported as a flag line, never as a failure
    runs = run_lower_bound(
        "er:100,0.08", trials=120, seed=7, budgets=[1, 8, 60],
        strategies=(TruncatedSamplerStrategy(0.25), BlindGuessStrategy()),
    )
    by_strategy = {}
    for r in runs:
        by_strategy.setdefault(r.strategy, []).append(r)
    for name, rows in by_strategy.items():
        rows.sort(key=lambda r: r.budget)
        slack = 3 * math.sqrt(0.25 / rows[0].trials)
        for a, b in zip(rows, rows[1:]):
            if b.tv_lower_estimate > a.tv_lower_estimate + slack:
                print(f"FLAG: tv_lower_estimate rose with budget for {name}")


def test_clique_membership_hidden_before_witness():
    # Transcript coupling: over all label permutations of path(4) + K3,
    # answers to a fixed non-witness query script on ids 0 and 1 carry no
    # information about where the clique sits. Raw neighbor answers are ids
    # whose labels are exchangeable over the unqueried set, so the invariant
    # object is the id-free projection of the transcript: degrees, adjacency,
    # and whether an answered id lands back in the queried set.
    base = path(4)
    union, clique_ids = planted_union(base, 3)
    n = union.n

    def transcript(perm):
        view = RelabeledView(union, perm)
        return (
            view.degree(0),
            view.degree(1),
            view.has_edge(0, 1),
            view.neighbor(0, 1) in (0, 1),
        )

    buckets: dict[frozenset, list] = {}
    for perm in itertools.permutations(range(n)):
        placement = frozenset(perm[v] for v in clique_ids)
        if placement & {0, 1}:
            continue  # the script would contain a witness
        buckets.setdefault(placement, []).append(transcript(perm))

    distributions = {
        placement: sorted(map(repr, ts)) for placement, ts in buckets.items()
    }
    reference = next(iter(distributions.values()))
    assert len(distributions) > 1
    assert all(d == reference for d in distributions.values())


class OneEdgeStrategy:
    """Probe one random vertex and return its first edge, if it has one."""

    name = "one-edge"

    def run(self, oracle, budget, rng):
        v = oracle.random_vertex()
        return (v, oracle.neighbor(v, 1)) if oracle.degree(v) else None


def test_lower_bound_membership_matches_exact_rates():
    # Exact values, with 4 sigma: a blind guess hits the clique with
    # probability k(k-1)/(n(n-1)) and witnesses nothing. A one-edge probe
    # witnesses exactly when its vertex is a clique vertex (k/n), returns
    # when the vertex is not isolated, and then hits exactly when the vertex
    # is a clique vertex; a membership test that is not the relabeling's
    # (say, new id >= base.n) would put that hit rate near k^2/n^2.
    base_spec, trials = "er:200,0.01", 6000  # some base vertices are isolated
    base = generate(base_spec, seed=3)
    k = clique_size_for(base)
    n = base.n + k
    covered = k + sum(d > 0 for d in base.degrees())
    blind, probe = run_lower_bound(
        base_spec, (BlindGuessStrategy(), OneEdgeStrategy()), budgets=[3], trials=trials, seed=12, base_seed=3
    )

    def near(observed, p, count):
        return abs(observed - p) <= 4 * math.sqrt(p * (1 - p) / count)

    assert blind.witness_rate == 0 and blind.return_rate == 1
    assert near(blind.clique_hit_rate, k * (k - 1) / (n * (n - 1)), trials)
    assert near(probe.witness_rate, k / n, trials)
    assert near(probe.return_rate, covered / n, trials)
    assert near(probe.clique_hit_rate, k / covered, round(probe.return_rate * trials))


def test_lower_bound_deterministic_under_seed():
    a = run_lower_bound("er:80,0.1", trials=60, seed=9, budgets=[4])
    b = run_lower_bound("er:80,0.1", trials=60, seed=9, budgets=[4])
    assert [(r.strategy, r.clique_hit_rate, r.witness_rate) for r in a] == [
        (r.strategy, r.clique_hit_rate, r.witness_rate) for r in b
    ]
    assert a == b  # every field of every row


def test_oracles_on_one_generator_draw_its_continuation():
    g = generate("er:50,0.1", seed=1)
    shared, reference = random.Random(3), random.Random(3)
    first, second = QueryOracle(g, seed=shared), QueryOracle(marked_view(g, frozenset()), seed=shared)
    assert first.rng is second.rng is shared
    drawn = [o.random_vertex() for o in (first, second, second, first, second)]
    assert drawn == [reference.randrange(g.n) for _ in range(5)]
    assert shared.getstate() == reference.getstate()
    assert QueryOracle(g, seed=3).rng.getstate() == random.Random(3).getstate()  # an int still seeds its own


class RecordingStrategy:
    """Record the generator each trial is given; return nothing."""

    name = "recording"

    def __init__(self):
        self.seen = []

    def run(self, oracle, budget, rng):
        assert rng is oracle.rng
        self.seen.append((budget, rng, oracle.random_vertex()))
        return None


def test_one_oracle_stream_per_cell():
    strategy = RecordingStrategy()
    run_lower_bound("er:60,0.1", (strategy,), budgets=[2, 5], trials=25, seed=1)
    assert len(strategy.seen) == 50
    cells = {budget: {id(rng) for b, rng, _ in strategy.seen if b == budget} for budget in (2, 5)}
    assert [len(ids) for ids in cells.values()] == [1, 1] and cells[2] != cells[5]
    assert len({v for _, _, v in strategy.seen}) > 1  # the trials draw on, not from one fixed state


SMALL_UNION, _ = planted_union(path(5), clique_size_for(path(5)))  # clique ids 5..8, n = 9
QUERY = st.tuples(st.sampled_from(["vertex", "degree", "neighbor", "pair"]), st.integers(0, 8), st.integers(0, 8))


@settings(max_examples=200, deadline=None)
@given(st.lists(QUERY, max_size=12), st.integers(0, 2**32))
def test_marking_reveals_nothing_and_flags_each_witness(script, seed):
    first = path(5).n
    plain_view = RelabeledView(SMALL_UNION, random.Random(seed))
    witness_view = marked_view(SMALL_UNION, range(first, SMALL_UNION.n), random.Random(seed))
    plain, witness = QueryOracle(plain_view, seed=seed), QueryOracle(witness_view, seed=seed)
    for o in (plain, witness):
        for kind, a, b in script:
            if kind == "vertex":
                o.random_vertex()
            elif kind == "degree":
                o.degree(a)
            elif kind == "neighbor":
                o.neighbor(a, b + 1)
            else:
                o.pair(a, b)
    assert witness_view._old == plain_view._old and witness_view._new == plain_view._new
    clique = {v for v, old in plain_view._old.items() if old >= first}
    expected = any(
        (kind in ("degree", "neighbor") and a in clique) or (kind == "pair" and a != b and {a, b} <= clique)
        for kind, a, b in script
    )
    assert witness_view.witnessed is expected
    assert not plain_view.witnessed  # nothing is marked by default


def cell_counts(rows):
    """Each row as (strategy, budget, witnesses, returns, hits), after checking
    that its rates are exactly those counts' ratios."""
    cells = []
    for r in rows:
        witnesses, returns = round(r.witness_rate * r.trials), round(r.return_rate * r.trials)
        hits = round(r.clique_hit_rate * returns)
        assert (r.witness_rate, r.return_rate) == (witnesses / r.trials, returns / r.trials)
        assert r.clique_hit_rate == (hits / returns if returns else 0.0)
        cells.append((r.strategy, r.budget, witnesses, returns, hits))
    return cells


LB_PINS = {  # (spec, seed): ((n, m_dir, k), cells), as the experiment first wrote them, 100 trials a cell
    ("er:600,0.02", 1): ((685, 14262, 85), [
        ("truncated-sampler", 1, 0, 0, 0), ("truncated-sampler", 6, 26, 7, 3),
        ("truncated-sampler", 58, 81, 49, 30), ("truncated-sampler", 300, 86, 98, 49),
        ("greedy-pairs", 1, 0, 0, 0), ("greedy-pairs", 6, 19, 1, 0),
        ("greedy-pairs", 58, 91, 73, 66), ("greedy-pairs", 300, 100, 100, 100),
        ("blind-guess", 1, 0, 100, 1), ("blind-guess", 6, 0, 100, 2),
        ("blind-guess", 58, 0, 100, 1), ("blind-guess", 300, 0, 100, 1),
    ]),
    ("er:600,0.02", 2): ((686, 14512, 86), [
        ("truncated-sampler", 1, 0, 0, 0), ("truncated-sampler", 6, 22, 10, 3),
        ("truncated-sampler", 58, 82, 54, 30), ("truncated-sampler", 300, 86, 98, 46),
        ("greedy-pairs", 1, 0, 0, 0), ("greedy-pairs", 6, 25, 4, 2),
        ("greedy-pairs", 58, 92, 76, 72), ("greedy-pairs", 300, 100, 100, 100),
        ("blind-guess", 1, 0, 100, 2), ("blind-guess", 6, 0, 100, 4),
        ("blind-guess", 58, 0, 100, 1), ("blind-guess", 300, 0, 100, 2),
    ]),
    ("er:600,0.02", 3): ((686, 14468, 86), [
        ("truncated-sampler", 1, 0, 0, 0), ("truncated-sampler", 6, 23, 3, 1),
        ("truncated-sampler", 58, 81, 48, 23), ("truncated-sampler", 300, 92, 99, 50),
        ("greedy-pairs", 1, 0, 0, 0), ("greedy-pairs", 6, 17, 4, 1),
        ("greedy-pairs", 58, 93, 81, 75), ("greedy-pairs", 300, 100, 100, 100),
        ("blind-guess", 1, 0, 100, 0), ("blind-guess", 6, 0, 100, 1),
        ("blind-guess", 58, 0, 100, 1), ("blind-guess", 300, 0, 100, 2),
    ]),
    ("er:5000,0.004", 1): ((5317, 199888, 317), [  # the benchmark's lb spec, default budgets
        ("truncated-sampler", 1, 0, 0, 0), ("truncated-sampler", 2, 5, 0, 0),
        ("truncated-sampler", 12, 22, 6, 5), ("truncated-sampler", 119, 85, 51, 25),
        ("greedy-pairs", 1, 0, 0, 0), ("greedy-pairs", 2, 0, 0, 0),
        ("greedy-pairs", 12, 25, 3, 2), ("greedy-pairs", 119, 91, 76, 71),
        ("blind-guess", 1, 0, 100, 1), ("blind-guess", 2, 0, 100, 0),
        ("blind-guess", 12, 0, 100, 0), ("blind-guess", 119, 0, 100, 1),
    ]),
}


@pytest.mark.parametrize("spec, seed", LB_PINS)
def test_lower_bound_rows_are_pinned(spec, seed):
    # k = 85..86 on er:600,0.02 is above graph.SHORT_ROW, so clique pair
    # queries take the numpy row scan, and budget 300 reveals long chains.
    budgets = [1, 6, 58, 300] if spec == "er:600,0.02" else None
    rows = run_lower_bound(spec, budgets=budgets, trials=100, seed=seed, base_seed=seed)
    shape, cells = LB_PINS[spec, seed]
    assert {(r.n, r.m_dir, r.k) for r in rows} == {shape}
    assert cell_counts(rows) == cells


def test_each_trial_builds_its_view_through_the_module_attribute(monkeypatch):
    # A benchmark that times the relabeling swaps experiments.RelabeledView
    # for a wrapper taking (graph, perm); the rows must not notice.
    plain = run_lower_bound("er:80,0.1", budgets=[1, 20], trials=30, seed=2)
    calls = []

    def recording_view(graph, perm):
        calls.append((graph, perm))
        return RelabeledView(graph, perm)

    monkeypatch.setattr(experiments, "RelabeledView", recording_view)
    assert run_lower_bound("er:80,0.1", budgets=[1, 20], trials=30, seed=2) == plain
    assert len(calls) == 3 * 2 * 30
    assert all(isinstance(perm, random.Random) for _, perm in calls)
