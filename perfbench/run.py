"""edgesample benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload draw --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py               # every workload, one process each
    python3 perfbench/run.py --smoke       # tiny graphs, every workload, traced too

One workload prints, as its last stdout line, one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A table of the same metrics, the environment and any
failed checks go to stderr and, with the spans of a traced run, to
``.perfbench-out/``. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("draw", "verify", "lb")

# Every workload runs single-threaded; these must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny graphs, every workload, untraced and traced")
    return parser.parse_args(argv)


def environment(args, seconds: float) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool, sizes: dict, imports):
    """Run one workload in this process; return (result, problems, tracer)."""
    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        outcome, values, setups, tracer = workloads.WORKLOADS[name](
            sizes[name], seed, seconds, trace, sizes["setup_reps"], imports, workdir)
    if trace:
        declared = spec["per_layer"]
        values = {
            "cli.import_s": statistics.median(cli for _pkg, cli, _layers in setups),
            **{k: statistics.median(layers[k] for _, _, layers in setups) for k in setups[0][2]},
            **values,
        }
    else:
        declared = spec["end_to_end"]
        values["setup_s"] = statistics.median(pkg + sum(layers.values()) for pkg, _cli, layers in setups)
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = {m["name"]: m["unit"] for m in declared}
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"workload {name} reported undeclared metrics {sorted(unknown)}")
    # A layer the workload never reaches did no work in it, and reads 0.
    metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in units.items()}
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, outcome.problems, tracer


def report(name: str, result: dict, problems: list, env: dict) -> None:
    print(f"# {name}: env {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"#   {key:40s} {metric['value']:16.6g} {metric['unit']}", file=sys.stderr)
    print(f"#   attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}",
          file=sys.stderr)
    for problem in problems:
        print(f"#   FAILED CHECK: {problem}", file=sys.stderr)


def single(args, spec: dict, seconds: float) -> int:
    import workloads

    env = environment(args, seconds)
    result, problems, tracer = run_one(
        spec, args.workload, args.seed, seconds, bool(args.trace), workloads.FULL,
        lambda: workloads.import_seconds(str(SRC)))
    report(args.workload, result, problems, env)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "problems": problems}, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.write(f"{stem}.spans.jsonl")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def every_workload(args, seconds: float) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if lines:
            print(json.dumps({"workload": name, **json.loads(lines[-1])}, sort_keys=True))
    return status


def smoke(args, spec: dict) -> int:
    """Every workload, untraced and traced, on tiny graphs, in this process."""
    import workloads

    measured = []

    def imports():
        if not measured:
            measured.append(workloads.import_seconds(str(SRC)))
        return measured[0]

    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (False, True):
            result, problems, _ = run_one(spec, name, args.seed, 0.05, trace, workloads.SMOKE, imports)
            print(f"smoke {name} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"metrics={len(result['metrics'])}")
            for problem in problems:
                print(f"  FAILED CHECK: {problem}")
            status |= not result["correct"]
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgesample" / "__init__.py").is_file():
        print(f"error: no edgesample package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(args, spec)
    if args.workload == "all":
        return every_workload(args, seconds)
    return single(args, spec, seconds)


if __name__ == "__main__":
    sys.exit(main())
