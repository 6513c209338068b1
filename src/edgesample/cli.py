"""Command-line front end.

Subcommands: ``sample``, ``estimate``, ``verify``, ``bench``, ``lb``,
``gen``. Reports are machine-readable (JSON lines, or CSV rows plus a
JSON summary on stderr for the experiment commands), every report echoes
the fully resolved run configuration, floats are printed with 12
significant digits, and identical configuration plus seed reproduces
byte-identical output.

Exit status: 0 success, 1 a sampling run ended in Failure, 2 usage error
(a ``--samples`` too large to allocate included), 3 I/O error or a
``--graph`` file whose contents are not a valid edge list.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
from dataclasses import fields
from fractions import Fraction

from .analytic import attempt_distribution, check_attempt_bounds, conditional_closeness
from .estimate import ESTIMATORS, estimate_edges_amplified
from .experiments import (
    DEFAULT_STRATEGIES, LowerBoundRun, ScalingRun, TruncatedSamplerStrategy, run_lower_bound, run_scaling,
)
from .generators import generate
from .graph import GraphConstructionError, read_edge_list, write_edge_list
from .oracle import QueryOracle
from .sampler import SamplerConfig, check_epsilon, sample_edge_almost_uniformly, threshold_for

EXIT_OK = 0
EXIT_FAILURE_OUTCOME = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(ValueError):
    """Bad flag combination or value; maps to exit status 2."""


def _fmt(value):
    """12-significant-digit floats; Fractions become floats first."""
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float(f"{value:.12g}")
        return str(value)
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _emit(obj, stream=None) -> None:
    print(json.dumps(_fmt(obj), sort_keys=True), file=stream or sys.stdout)


def _resolve_seed(seed: int | None) -> int:
    """--seed, else EDGE_SAMPLER_SEED, else a random 32-bit seed. A negative seed is
    refused: random.Random seeds from its absolute value, so -7 would replay 7."""
    source = "--seed"
    if seed is None:
        env = os.environ.get("EDGE_SAMPLER_SEED")
        if env is None:
            return secrets.randbits(32)
        source = "EDGE_SAMPLER_SEED"
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"EDGE_SAMPLER_SEED must be an integer, got {env!r}")
    if seed < 0:
        raise UsageError(f"{source} must be >= 0, got {seed}")
    return seed


def _load_graph(args):
    has_file = getattr(args, "graph", None) is not None
    has_spec = getattr(args, "generate", None) is not None
    if has_file == has_spec:
        raise UsageError("give exactly one graph source: --graph FILE or --generate SPEC")
    if has_file:
        return read_edge_list(args.graph), f"file:{args.graph}"
    return generate(args.generate, seed=args.seed), args.generate


def _graph_summary(g) -> dict:
    return {"n": g.n, "m_directed": g.m_dir, "m_undirected": g.m_dir // 2}


def _config(args, command: str, *flags: str, **resolved) -> dict:
    """The echoed run configuration: the named flags (``seed`` as ``main`` resolved it), then derived values."""
    return {"command": command, **{flag: getattr(args, flag) for flag in flags}, **resolved}


def _table(rows: list[dict], columns, plot_data: bool) -> None:
    """CSV with a header line, or space-separated columns under a ``#`` header
    for ``--plot-data``; floats print with 12 significant digits."""
    sep = " " if plot_data else ","
    print(("# " if plot_data else "") + sep.join(columns))
    for row in rows:
        print(sep.join(f"{row[c]:.12g}" if isinstance(row[c], float) else str(row[c]) for c in columns))


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", metavar="FILE", help="edge-list file ('u v' per line, optional 'n COUNT' header)")
    p.add_argument("--generate", metavar="SPEC", help="generator spec, e.g. star:5, er:1000,0.05, clique_union:path:4,3")


def _add_command(sub, name: str, run, help: str, epsilon: str | None = None, estimator: str | None = None):
    """Subcommand ``name``, run by ``run(args)``, with ``--seed``, ``--epsilon`` given its help, and
    ``--estimator``/``--samples`` given the estimator's default. Each gets fresh actions: argparse
    ``parents=`` would share them, so one command's defaults would leak into another's."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
    p.add_argument("--seed", type=int, help="non-negative seed (default: $EDGE_SAMPLER_SEED, else random)")
    if epsilon is not None:
        p.add_argument("--epsilon", type=float, default=0.25, help=epsilon)
    if estimator is not None:
        p.add_argument("--estimator", choices=sorted(ESTIMATORS), default=estimator)
        p.add_argument("--samples", type=int, help="vertex samples per estimator pass")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgesample",
        description="Sample edges of a graph nearly uniformly through metered vertex/degree/neighbor queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    closeness = "closeness to uniform, in (0, 0.5)"

    p = _add_command(sub, "sample", _cmd_sample, "draw almost-uniform directed edges", closeness, "degree-sum-mc")
    _add_graph_source(p)
    p.add_argument("--count", type=int, default=1, help="independent edge draws")
    p.add_argument("--reps", type=int, default=1, help="odd number of estimates to take a median over")
    p.add_argument(
        "--reuse-estimate",
        action="store_true",
        help="estimate m once and reuse it for all draws; draws are then "
        "correlated through the shared estimate instead of independent",
    )

    p = _add_command(sub, "estimate", _cmd_estimate, "estimate the directed edge count", estimator="degree-sum-mc")
    _add_graph_source(p)
    p.add_argument("--reps", type=int, default=1)

    p = _add_command(sub, "verify", _cmd_verify, "exact closeness report and analytic bound margins", closeness)
    _add_graph_source(p)
    p.add_argument("--theta", type=int, help="threshold override (default: ceil(sqrt(2 m / epsilon)))")

    p = _add_command(sub, "bench", _cmd_bench, "query-cost scaling over a family of graphs", closeness, "exact")
    p.add_argument("--generate", metavar="SPEC", action="append", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--plot-data", action="store_true", help="emit gnuplot-ready columns instead of CSV")

    p = _add_command(sub, "lb", _cmd_lb, "hidden-clique budget experiment", "epsilon of the truncated sampler")
    p.add_argument("--generate", metavar="SPEC", required=True, help="base graph spec; a clique holding half the edges is planted")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--budgets", help="comma-separated query budgets (default: geometric sweep around n/sqrt(m))")
    p.add_argument("--strategies", help="comma-separated subset of: truncated-sampler,greedy-pairs,blind-guess")
    p.add_argument("--plot-data", action="store_true")

    p = _add_command(sub, "gen", _cmd_gen, "write a generated graph as an edge-list file")
    p.add_argument("--generate", metavar="SPEC", required=True)
    p.add_argument("--out", metavar="FILE", required=True)
    return parser


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    g, source = _load_graph(args)
    oracle = QueryOracle(g, seed=args.seed)
    config_echo = _config(args, "sample", "count", "estimator", "samples", "reps", "reuse_estimate", "epsilon",
                          "seed", source=source, **_graph_summary(g))
    est = None
    any_failure = False
    for _ in range(args.count):
        if est is None or not args.reuse_estimate:
            est = estimate_edges_amplified(oracle, args.estimator, args.samples, args.reps)
        cfg = SamplerConfig.for_graph(g.n, est.m_hat, args.epsilon)
        report = sample_edge_almost_uniformly(oracle, cfg)
        line = {
            "attempts": report.attempts_used,
            "queries": report.queries.as_dict(),
            "theta": cfg.theta,
            "q": cfg.q,
            "m_hat": est.m_hat,
            "fallback": report.used_fallback,
            "config": config_echo,
        }
        if report.outcome is None:
            line["failure"] = True
            any_failure = True
        else:
            line["edge"] = list(report.outcome)
        _emit(line)
    return EXIT_FAILURE_OUTCOME if any_failure else EXIT_OK


def _cmd_estimate(args) -> int:
    g, source = _load_graph(args)
    oracle = QueryOracle(g, seed=args.seed)
    est = estimate_edges_amplified(oracle, args.estimator, args.samples, args.reps)
    _emit(
        {
            "m_hat": est.m_hat,
            "method": est.method,
            "queries": est.queries_used.as_dict(),
            "config": _config(args, "estimate", "estimator", "samples", "reps", "seed", source=source,
                              **_graph_summary(g)),
        }
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    g, source = _load_graph(args)
    if g.m_dir == 0:
        raise UsageError("graph has no edges; nothing to verify")
    theta = args.theta if args.theta is not None else threshold_for(float(g.m_dir), args.epsilon)
    if theta < 1:
        raise UsageError(f"--theta must be >= 1, got {theta}")
    dist = attempt_distribution(g, theta)
    report = {
        "theta": theta,
        "success_prob": dist.success_prob,
        "bounds": check_attempt_bounds(dist, args.epsilon).as_dict(),
        "config": _config(args, "verify", "epsilon", "seed", source=source, theta=theta, **_graph_summary(g)),
    }
    if dist.success_prob > 0:
        closeness = conditional_closeness(dist)
        report["closeness"] = {
            "max_ratio_dev": closeness.max_ratio_dev,
            "tv_distance": closeness.tv_distance,
            "pointwise_ok": closeness.pointwise_ok(args.epsilon),
        }
    else:
        report["closeness"] = None
    _emit(report)
    return EXIT_OK


def _cmd_bench(args) -> int:
    result = run_scaling(
        args.generate, args.epsilon, args.trials, args.seed, args.estimator, args.samples
    )
    rows = sorted(result.runs, key=lambda r: (r.cost_scale, r.spec))
    columns = ("cost_scale", "mean_queries", "stddev_queries") if args.plot_data else \
        [f.name for f in fields(ScalingRun)] + ["cost_scale"]
    _table([{**vars(r), "cost_scale": r.cost_scale} for r in rows], columns, args.plot_data)
    _emit(
        {
            "slope": result.slope,
            "intercept": result.intercept,
            "config": _config(args, "bench", "trials", "estimator", "samples", "epsilon", "seed",
                              specs=list(args.generate)),
        },
        stream=sys.stderr,
    )
    return EXIT_OK


_LB_STRATEGIES = {s.name: type(s) for s in DEFAULT_STRATEGIES}


def _cmd_lb(args) -> int:
    budgets = None
    if args.budgets:
        try:
            budgets = [int(b) for b in args.budgets.split(",")]
        except ValueError:
            raise UsageError(f"--budgets must be comma-separated integers, got {args.budgets!r}")
    names = args.strategies.split(",") if args.strategies else list(_LB_STRATEGIES)
    unknown = [s for s in names if s not in _LB_STRATEGIES]
    if unknown:
        raise UsageError(f"unknown strategies {unknown}; choose from {sorted(_LB_STRATEGIES)}")
    strategies = [
        cls(args.epsilon) if cls is TruncatedSamplerStrategy else cls()
        for cls in map(_LB_STRATEGIES.get, names)
    ]
    runs = run_lower_bound(
        args.generate, strategies, budgets, args.trials, seed=args.seed, base_seed=args.seed
    )
    rows = [{**vars(r), "witness_envelope": min(1.0, 4.0 * r.k * r.budget / r.n)}
            for r in sorted(runs, key=lambda r: (r.strategy, r.budget))]
    columns = ("budget", "witness_rate", "clique_hit_rate", "tv_lower_estimate", "strategy") if args.plot_data else \
        [f.name for f in fields(LowerBoundRun)] + ["witness_envelope"]
    _table(rows, columns, args.plot_data)
    _emit(
        {
            "rows": len(rows),
            "k": rows[0]["k"] if rows else None,
            "e_k_over_m": rows[0]["e_k_dir"] / rows[0]["m_dir"] if rows else None,
            "config": _config(args, "lb", "trials", "epsilon", "seed", base_spec=args.generate, budgets=budgets,
                              strategies=[s.name for s in strategies]),
        },
        stream=sys.stderr,
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    g = generate(args.generate, seed=args.seed)
    write_edge_list(g, args.out)
    _emit(
        {
            "out": args.out,
            "config": _config(args, "gen", "seed", spec=args.generate),
            **_graph_summary(g),
        }
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "epsilon"):
            check_epsilon(args.epsilon)
        args.seed = _resolve_seed(args.seed)
        return args.run(args)
    # Only read_edge_list lets GraphConstructionError out; generate() re-raises ValueError.
    except (OSError, GraphConstructionError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an array too large to allocate, e.g. from --samples
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
