#!/usr/bin/env python3
"""Benchmark for finexp: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload {cli_cold,solve_cap,verify_all} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout; finexp is imported from ``src``
and nothing is installed.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cli_cold", "solve_cap", "verify_all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [SRC / "finexp" / "__init__.py", ROOT / "scripts" / "sample_experiment.json", BENCHMARK]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.stderr.write(f"not a finexp checkout, missing: {', '.join(missing)}\n")
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))

    import workloads

    workloads.RESULTS.mkdir(exist_ok=True)
    loop, min_rounds, per_round = workloads.WORKLOADS[args.workload]
    run = workloads.Run(args.seconds, min_rounds)
    run.setup()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install_linprog()  # before finexp binds scipy's linprog
    import finexp  # noqa: F401  (the in-process workloads use it)

    if tracer is not None:
        tracer.install_finexp()
    start = time.perf_counter()
    loop(run, args.seed)
    loop_s = time.perf_counter() - start

    (workloads.RESULTS / f"samples-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(run.samples), encoding="utf-8")
    metrics = run.metrics(units_of(spec, "end_to_end"), per_round)
    if tracer is not None:
        loop_overhead = {**tracer.overhead(), "loop_s": loop_s}
        layers = tracing.layer_sweep(run, tracer, args.seed)
        per_layer = units_of(spec, "per_layer")
        tracer.write(workloads.RESULTS / f"trace-{args.workload}-seed{args.seed}.json",
                     traced_end_to_end=metrics, loop_overhead=loop_overhead,
                     overhead=tracer.overhead(), absent=sorted(set(per_layer) - set(layers)))
        metrics = {name: {"value": layers[name], "unit": per_layer[name]} for name in per_layer if name in layers}

    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def units_of(spec: dict, kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
