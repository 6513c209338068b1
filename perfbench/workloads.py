"""The benchmark's three workloads: ``draw``, ``verify`` and ``lb``.

Each workload sets up (import plus building its graph, several times, for
a median), then times batches of operations until the run's seconds are
spent, then checks every output. Untraced runs give the end-to-end
metrics. Traced runs replay each batch twice with identical seeds, first
untraced and then traced, so ``trace.overhead`` compares identical work;
the per-layer metrics come from the traced copies.

The layers are reached only through their public functions. Some are
reached only through another layer's internals: ``RelabeledView``,
``sample_edge_almost_uniformly`` and each strategy's ``run`` inside
``run_lower_bound``. Traced ``lb`` runs wrap the module attributes and pass
wrapped strategies; untraced runs never do.
"""

from __future__ import annotations

import gc
import io
import json
import statistics
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from time import perf_counter

from inputs import DegreeTable, hubs_edge_list, subseed, threshold
from spans import Tracer

EPSILON = 0.25
OFF = Tracer(False)

# Sizes of the full runs and of the smoke run. ``batch`` draws make one
# timed batch of ``draw`` and ``group`` batches one throughput sample;
# ``prefix_batches`` fixes how many draws ``work_per_op`` counts, so that
# it does not depend on speed.
FULL = {
    "setup_reps": 3,
    "draw": {"er": (20000, 0.001), "hubs": 20, "leaves": 4000, "batch": 25, "group": 10,
             "prefix_batches": 120},
    "verify": {"er": (2000, 0.006), "hubs": 8, "leaves": 700, "min_ops": 3},
    "lb": {"spec": "er:5000,0.004", "trials": 100, "count_trials": 400, "min_ops": 2},
}
SMOKE = {
    "setup_reps": 1,
    "draw": {"er": (200, 0.02), "hubs": 3, "leaves": 200, "batch": 10, "group": 2, "prefix_batches": 2},
    "verify": {"er": (100, 0.04), "hubs": 3, "leaves": 100, "min_ops": 1},
    "lb": {"spec": "er:200,0.05", "trials": 10, "count_trials": 20, "min_ops": 2},
}

# Nominal wall time of ``reference()`` on an unloaded core of the machine
# the baseline was measured on; it only converts reference units to seconds.
REFERENCE_SECONDS = 0.015

_IMPORT_SNIPPET = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import edgesample
t1 = time.perf_counter()
import edgesample.cli
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t0]))
"""


class Outcome:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(message)


def import_seconds(src: str) -> tuple[float, float]:
    """(``import edgesample``, ``import edgesample.cli``) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_SNIPPET, src],
        capture_output=True, text=True, timeout=120, check=True,
    )
    package, cli = json.loads(proc.stdout.strip().splitlines()[-1])
    return package, cli


def timed(fn, *args):
    """``(wall seconds, fn(*args))``."""
    start = perf_counter()
    value = fn(*args)
    return perf_counter() - start, value


def traced_mib(fn, *args) -> float:
    """Peak traced Python allocation of one call, in MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def reference() -> float:
    """Wall time of fixed pure-Python loops that touch no library code.

    Integer arithmetic plus ``Fraction`` sums, which allocate and call
    methods, track the speed of all three workloads better than either alone.
    """
    start = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i)
    return perf_counter() - start


class Laps:
    """Nominal time of a batch, accumulated lap by lap.

    Calling the object ends a lap: it runs ``reference()`` and adds the
    lap's wall time scaled by REFERENCE_SECONDS over the mean of the
    reference times on either side of the lap. That is the time the lap
    would have taken at the speed at which ``reference()`` takes
    REFERENCE_SECONDS.
    """

    def __init__(self):
        self.before = reference()
        self.start()

    def start(self) -> None:
        self.nominal = 0.0
        self.mark = perf_counter()

    def __call__(self) -> None:
        elapsed = perf_counter() - self.mark
        after = reference()
        self.nominal += elapsed * 2 * REFERENCE_SECONDS / (self.before + after)
        self.before = after
        self.mark = perf_counter()


def no_lap() -> None:
    pass


def measure(seconds: float, min_batches: int, batch):
    """Call ``batch(i, lap)`` for i = 0, 1, ... until ``seconds`` pass and at
    least ``min_batches`` ran; return ``[(result, nominal seconds)]``.

    The speed of a shared core drifts by 20% and more over tens of seconds,
    and identical work drifts with it. So each batch is timed in nominal
    seconds (see Laps). A batch may call ``lap()`` between its steps to
    bracket them separately; the end of the batch always ends a lap.
    """
    start = perf_counter()
    results = []
    laps = Laps()
    while len(results) < min_batches or perf_counter() - start < seconds:
        laps.start()
        value = batch(len(results), laps)
        laps()
        results.append((value, laps.nominal))
    return results


def per_call(times: dict, name: str) -> float:
    """Mean self time of one call of the named span; 0 when it never ran."""
    calls, _total, own = times.get(name, (0, 0.0, 0.0))
    return own / calls if calls else 0.0


def _queries_per(counts, divisor: int) -> dict:
    return {f"oracle.queries.{k}": getattr(counts, k) / divisor if divisor else 0.0
            for k in ("vertex", "degree", "neighbor", "pair")}


# ---------------------------------------------------------------------------
# draw: independent full draws on a hubs graph
# ---------------------------------------------------------------------------


def run_draw(size: dict, seed: int, seconds: float, trace: bool, setup_reps: int, imports, workdir: str):
    from edgesample import (
        QueryCounts, QueryOracle, SamplerConfig, build_graph,
        estimate_edges_amplified, sample_edge_almost_uniformly,
    )
    from edgesample.generators import erdos_renyi

    tracer = Tracer(trace)
    outcome = Outcome()
    n0, p = size["er"]
    setups = []
    g = edges = None
    for _ in range(setup_reps):
        g = edges = None
        gc.collect()
        imported = imports()
        with tracer.span("setup"):
            with tracer.span("generators.generate"):
                t_gen, base = timed(erdos_renyi, n0, p, seed)
            edges, n = hubs_edge_list(base.undirected_edges(), base.n, size["hubs"], size["leaves"], seed)
            base = None
            with tracer.span("graph.build"):
                t_build, g = timed(build_graph, edges, n)
        setups.append((*imported, {"generators.generate_s": t_gen, "graph.build_s": t_build}))
    table = DegreeTable(edges, n)
    graph_mib = traced_mib(build_graph, edges, n) if trace else 0.0
    edges = None
    gc.collect()

    def batch(index: int, tr: Tracer):
        oracle = QueryOracle(g, seed=subseed(seed, 2, index))
        records = []
        for _ in range(size["batch"]):
            try:
                with tr.span("draw"):
                    before = oracle.counts.total
                    with tr.span("estimate"):
                        est = estimate_edges_amplified(oracle, "degree-sum-mc")
                    cfg = SamplerConfig.for_graph(n, est.m_hat, EPSILON)
                    with tr.span("sampler.run"):
                        report = sample_edge_almost_uniformly(oracle, cfg)
                records.append((report, est.queries_used, oracle.counts.total - before))
            except Exception as exc:  # a failed operation is counted, not fatal
                records.append(exc)
        return records

    def check(records) -> int:
        """Count successful draws; record every failed operation."""
        outcome.attempted += len(records)
        good = []
        for rec in records:
            if isinstance(rec, Exception):
                outcome.fail(1, f"draw raised {rec!r}")
                continue
            report, est_queries, delta = rec
            if report.queries.total > 5 * report.attempts_used:
                outcome.fail(1, f"run used {report.queries.total} queries in {report.attempts_used} attempts")
            elif delta != est_queries.total + report.queries.total:
                outcome.fail(1, f"draw charged {delta} queries, reports account for "
                                f"{est_queries.total + report.queries.total}")
            elif report.outcome is not None:
                good.append(report.outcome)
        real = table.has_edges([e[0] for e in good], [e[1] for e in good])
        for e in (e for e, ok in zip(good, real) if not ok):
            outcome.fail(1, f"returned {tuple(e)}, which is not an edge")
        return int(real.sum())

    metrics = {}
    if not trace:
        batches = measure(seconds, size["prefix_batches"], lambda i, lap: batch(i, OFF))
        wins = [check(records) for records, _ in batches]
        nominal = [t for _, t in batches]
        k = size["group"]
        metrics["norm_ops_per_s"] = statistics.median(
            sum(wins[j:j + k]) / sum(nominal[j:j + k]) for j in range(0, len(batches) - k + 1, k))
        prefix = size["prefix_batches"]
        queries = sum(rec[2] for records, _ in batches[:prefix]
                      for rec in records if not isinstance(rec, Exception))
        metrics["work_per_op"] = queries / max(1, sum(wins[:prefix]))
    else:
        pairs = [v for v, _ in measure(seconds, 2, lambda i, lap: (
            timed(batch, i, OFF), timed(batch, i, tracer)))]
        traced = []
        for (t_plain, plain), (t_traced, records) in pairs:
            check(plain)
            check(records)
            replay = [(r[0].outcome, r[0].attempts_used) for r in records if not isinstance(r, Exception)]
            if replay != [(r[0].outcome, r[0].attempts_used) for r in plain if not isinstance(r, Exception)]:
                outcome.fail(len(records), "traced replay of a batch returned different draws")
            traced += [r for r in records if not isinstance(r, Exception)]
        times = tracer.self_times()
        runs = [r[0] for r in traced]
        wins = [r for r in runs if r.outcome is not None]
        attempts = sum(r.attempts_used for r in runs)
        counts = QueryCounts()
        for report, est_queries, _ in traced:
            counts = counts + report.queries + est_queries
        predicted = [table.run_prediction(r.config.theta, r.config.q) for r in runs]
        heavy = sum(1 for r in wins if table.deg[r.outcome.origin] > r.config.theta)
        busy = times["estimate"][2] + times["sampler.run"][2]
        metrics.update({
            "estimate.s": per_call(times, "estimate"),
            "estimate.queries_per_call": sum(r[1].total for r in traced) / len(traced),
            "sampler.run_s": per_call(times, "sampler.run"),
            "sampler.attempts_per_run": attempts / len(runs),
            "sampler.attempts_per_run.predicted": statistics.fmean(a for a, _, _ in predicted),
            "sampler.attempts_per_s": attempts / times["sampler.run"][2],
            "sampler.attempt_success_ratio": len(wins) / attempts,
            "sampler.run_failure_rate": 1 - len(wins) / len(runs),
            "sampler.run_failure_rate.predicted": statistics.fmean(f for _, f, _ in predicted),
            "sampler.heavy_origin_share": heavy / max(1, len(wins)),
            "sampler.heavy_origin_share.predicted":
                sum(h for _, _, h in predicted) / sum(1 - f for _, f, _ in predicted),
            "sampler.fallback_runs": sum(r.used_fallback for r in runs),
            "oracle.queries_per_s": counts.total / busy,
            **_queries_per(counts, len(wins)),
            "graph.mib": graph_mib,
            "trace.overhead": sum(t for _, (t, _) in pairs) / sum(t for (t, _), _ in pairs),
        })
    return outcome, metrics, setups, tracer


# ---------------------------------------------------------------------------
# verify: exact analytic verification of a loaded hubs graph
# ---------------------------------------------------------------------------


def run_verify(size: dict, seed: int, seconds: float, trace: bool, setup_reps: int, imports, workdir: str):
    from edgesample import attempt_distribution, conditional_closeness, read_edge_list, verify_attempt_bounds
    from edgesample import cli
    from edgesample.generators import erdos_renyi

    tracer = Tracer(trace)
    outcome = Outcome()
    n0, p = size["er"]
    with tracer.span("generators.generate"):
        t_gen, base = timed(erdos_renyi, n0, p, seed)
    edges, n = hubs_edge_list(base.undirected_edges(), base.n, size["hubs"], size["leaves"], seed)
    base = None
    table = DegreeTable(edges, n)
    path = f"{workdir}/hubs.edges"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {n}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)
    edges = None

    setups = []
    g = None
    for _ in range(setup_reps):
        g = None
        gc.collect()
        imported = imports()
        with tracer.span("setup"):
            with tracer.span("graph.read"):
                t_read, g = timed(read_edge_list, path)
        setups.append((*imported, {"graph.read_s": t_read}))
    graph_mib = traced_mib(read_edge_list, path) if trace else 0.0

    theta = threshold(table.m, Fraction(EPSILON))
    success = table.attempt_success(theta)
    deviation = table.max_ratio_dev(theta)

    def op(tr: Tracer, lap):
        with tr.span("verify"):
            with tr.span("analytic.attempt_distribution"):
                dist = attempt_distribution(g, theta)
            lap()
            with tr.span("analytic.bounds"):
                bounds = verify_attempt_bounds(g, theta, EPSILON)
            lap()
            with tr.span("analytic.closeness"):
                close = conditional_closeness(dist)
        return dist.success_prob, bounds.all_passed, close.max_ratio_dev, close.edge_count

    def check(result) -> None:
        outcome.attempted += 1
        got_success, passed, got_dev, edge_count = result
        if not passed:
            outcome.fail(1, "an applicable attempt bound failed")
        elif got_success != success:
            outcome.fail(1, f"success_prob {got_success} != exact {success}")
        elif got_dev != deviation or not deviation > 0:
            outcome.fail(1, f"max_ratio_dev {got_dev}, exact {deviation}; it must be equal and > 0")
        elif edge_count != table.m:
            outcome.fail(1, f"closeness covers {edge_count} edges, the graph has {table.m}")

    def safe_op(tr: Tracer, lap):
        try:
            return op(tr, lap)
        except Exception as exc:  # a failed operation is counted, not fatal
            return exc

    metrics = {}
    results = []
    if not trace:
        runs = measure(seconds, size["min_ops"], lambda i, lap: safe_op(OFF, lap))
        timed_ok = [t for r, t in runs if not isinstance(r, Exception)]
        metrics["norm_ops_per_s"] = statistics.median(1 / t for t in timed_ok) if timed_ok else 0.0
        metrics["work_per_op"] = table.m
        results = [r for r, _ in runs]
    else:
        pairs = [v for v, _ in measure(seconds, size["min_ops"], lambda i, lap: (
            timed(safe_op, OFF, no_lap), timed(safe_op, tracer, no_lap)))]
        results = [r for pair in pairs for _, r in pair]
        with tracer.span("cli.verify"):
            start = perf_counter()
            with redirect_stdout(io.StringIO()) as out:
                code = cli.main(["verify", "--graph", path, "--epsilon", str(EPSILON), "--seed", str(seed)])
            cli_s = perf_counter() - start
        outcome.attempted += 1
        report = json.loads(out.getvalue()) if code == 0 else {}
        if not (report.get("bounds", {}).get("all_passed") and report["closeness"]["pointwise_ok"]
                and report["success_prob"] == float(f"{float(success):.12g}")):
            outcome.fail(1, f"edgesample verify exited {code} with {out.getvalue()[:200]!r}")
        times = tracer.self_times()
        analytic = sum(times[k][2] for k in ("analytic.attempt_distribution", "analytic.bounds", "analytic.closeness"))
        metrics.update({
            "analytic.attempt_distribution_s": per_call(times, "analytic.attempt_distribution"),
            "analytic.bounds_s": per_call(times, "analytic.bounds"),
            "analytic.closeness_s": per_call(times, "analytic.closeness"),
            "analytic.edges_per_s": table.m * times["analytic.closeness"][0] / analytic,
            "cli.verify_s": cli_s,
            "generators.generate_s": t_gen,
            "graph.mib": graph_mib,
            "trace.overhead": sum(t for _, (t, _) in pairs) / sum(t for (t, _), _ in pairs),
        })
    for result in results:
        if isinstance(result, Exception):
            outcome.attempted += 1
            outcome.fail(1, f"verify raised {result!r}")
        else:
            check(result)
    return outcome, metrics, setups, tracer


# ---------------------------------------------------------------------------
# lb: the hidden-clique budget experiment
# ---------------------------------------------------------------------------


class StrategyProbe:
    """A strategy wrapper that counts trials, budget overruns and queries,
    and records a span around each run when its tracer is on."""

    def __init__(self, inner, tracer: Tracer, budget_exceeded, counts):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.budget_exceeded = budget_exceeded
        self.trials = 0
        self.exceeded = 0
        self.queries = counts

    def run(self, oracle, budget, rng):
        self.trials += 1
        try:
            with self.tracer.span("experiments.strategy." + self.name):
                return self.inner.run(oracle, budget, rng)
        except self.budget_exceeded:
            self.exceeded += 1
            raise
        finally:
            self.queries = self.queries + oracle.counts


def run_lb(size: dict, seed: int, seconds: float, trace: bool, setup_reps: int, imports, workdir: str):
    from edgesample import BudgetExceeded, QueryCounts
    from edgesample import experiments
    from edgesample.generators import generate

    tracer = Tracer(trace)
    outcome = Outcome()
    spec, trials = size["spec"], size["trials"]
    setups = []
    union = base = None
    for _ in range(setup_reps):
        union = base = None
        gc.collect()
        imported = imports()
        with tracer.span("setup"):
            with tracer.span("generators.generate"):
                t_gen, base = timed(generate, spec, seed)
            with tracer.span("graph.build"):
                t_build, (union, _clique) = timed(experiments.planted_union, base, experiments.clique_size_for(base))
        setups.append((*imported, {"generators.generate_s": t_gen, "graph.build_s": t_build}))
    graph_mib = traced_mib(experiments.planted_union, base, experiments.clique_size_for(base)) if trace else 0.0
    k = 2
    while k * (k - 1) < base.m_dir:
        k += 1
    expected = (base.n + k, base.m_dir + k * (k - 1), k)
    budgets = experiments.default_budgets(*expected[:2])
    names = [s.name for s in experiments.DEFAULT_STRATEGIES]
    base = union = None
    gc.collect()

    def call(strategies=experiments.DEFAULT_STRATEGIES, n_trials=trials):
        try:
            return experiments.run_lower_bound(spec, strategies, trials=n_trials, seed=seed, base_seed=seed)
        except Exception as exc:  # a failed operation is counted, not fatal
            return exc

    reference = []

    def check(rows, n_trials=trials) -> int:
        """Check one call's rows; return the trials it ran."""
        cells = len(names) * len(budgets)
        outcome.attempted += n_trials * cells
        if isinstance(rows, Exception):
            outcome.fail(n_trials * cells, f"run_lower_bound raised {rows!r}")
            return 0
        if n_trials == trials and not reference:
            reference.append(rows)
        if [(r.strategy, r.budget) for r in rows] != [(s, b) for s in names for b in budgets]:
            outcome.fail(n_trials * cells, f"expected one row per strategy x budget, got {len(rows)} rows")
        elif any(not 0 <= x <= 1 for r in rows for x in (r.clique_hit_rate, r.witness_rate, r.return_rate)):
            outcome.fail(n_trials * cells, "a rate lies outside [0, 1]")
        elif any(r.witness_rate != 0 for r in rows if r.strategy == "blind-guess"):
            outcome.fail(n_trials * cells, "blind-guess witnessed the clique")
        elif any((r.n, r.m_dir, r.k) != expected for r in rows):
            outcome.fail(n_trials * cells, f"union (n, m_dir, k) != {expected}")
        elif n_trials == trials and rows != reference[0]:
            outcome.fail(n_trials * cells, "a replay with the same seed gave different rows")
        return sum(r.trials for r in rows)

    def probed(tr: Tracer):
        counts = QueryCounts()
        return [StrategyProbe(s, tr, BudgetExceeded, counts) for s in experiments.DEFAULT_STRATEGIES]

    metrics = {}
    if not trace:
        calls = measure(seconds, size["min_ops"], lambda i, lap: call())
        done = [check(rows) for rows, _ in calls]
        metrics["norm_ops_per_s"] = statistics.median([d / t for d, (_, t) in zip(done, calls) if d] or [0.0])
        # Queries are counted in one untimed call with counting strategies and
        # more trials than a timed call, so that the count varies less by seed.
        probes = probed(OFF)
        rows = call(probes, size["count_trials"])
        check(rows, size["count_trials"])
        total = sum(pr.queries.total for pr in probes)
        metrics["work_per_op"] = total / max(1, sum(pr.trials for pr in probes))
    else:
        runs = []
        plain_view = experiments.RelabeledView
        plain_sample = experiments.sample_edge_almost_uniformly

        def traced_view(graph, perm):
            with tracer.span("experiments.relabel"):
                return plain_view(graph, perm)

        def traced_sample(oracle, config, rng=None):
            with tracer.span("sampler.run"):
                start = perf_counter()
                report = plain_sample(oracle, config, rng)
                elapsed = perf_counter() - start
            heavy = report.outcome is not None and oracle.graph.degree(report.outcome.origin) > config.theta
            runs.append((report, elapsed, heavy))
            return report

        def traced_call():
            probes = probed(tracer)
            experiments.RelabeledView, experiments.sample_edge_almost_uniformly = traced_view, traced_sample
            try:
                with tracer.span("lb"):
                    return timed(call, probes), probes
            finally:
                experiments.RelabeledView, experiments.sample_edge_almost_uniformly = plain_view, plain_sample

        pairs = [v for v, _ in measure(seconds, size["min_ops"], lambda i, lap: (timed(call), traced_call()))]
        probes = []
        for (_, plain), ((_, rows), pr) in pairs:
            check(plain)
            check(rows)
            probes += pr
        times = tracer.self_times()
        done = sum(pr.trials for pr in probes)
        counts = QueryCounts()
        for pr in probes:
            counts = counts + pr.queries
        busy = sum(times.get("experiments.strategy." + s.name, (0, 0.0, 0.0))[1]
                   for s in experiments.DEFAULT_STRATEGIES)
        wins = [r for r, _, _ in runs if r.outcome is not None]
        attempts = sum(r.attempts_used for r, _, _ in runs)
        metrics.update({
            "experiments.relabel_s": per_call(times, "experiments.relabel"),
            **{f"experiments.strategy_s.{s.name}": per_call(times, "experiments.strategy." + s.name)
               for s in experiments.DEFAULT_STRATEGIES},
            "experiments.budget_exceeded_share": sum(pr.exceeded for pr in probes) / done,
            "sampler.run_s": per_call(times, "sampler.run"),
            "sampler.attempts_per_run": attempts / len(runs) if runs else 0.0,
            "sampler.attempts_per_s": attempts / sum(e for _, e, _ in runs) if runs else 0.0,
            "sampler.attempt_success_ratio": len(wins) / attempts if attempts else 0.0,
            "sampler.run_failure_rate": 1 - len(wins) / len(runs) if runs else 0.0,
            "sampler.heavy_origin_share": sum(h for _, _, h in runs) / len(wins) if wins else 0.0,
            "sampler.fallback_runs": sum(r.used_fallback for r, _, _ in runs),
            "oracle.queries_per_s": counts.total / busy,
            **_queries_per(counts, done),
            "graph.mib": graph_mib,
            "trace.overhead": sum(t for _, ((t, _), _) in pairs) / sum(t for (t, _), _ in pairs),
        })
    return outcome, metrics, setups, tracer


WORKLOADS = {"draw": run_draw, "verify": run_verify, "lb": run_lb}
