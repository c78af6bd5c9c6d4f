"""The traced run: spans around calls into finexp's modules, and the layer sweep.

Spans are recorded from the benchmark's side only: wrappers replace
finexp's public functions in every finexp module that binds them, and
scipy's ``linprog`` is wrapped before finexp imports it.  A span is
(id, parent id, name, start, end); spans stay in memory and are written
out once, at the end of the run.  A name the wrapper cannot find is
recorded as absent, and the metrics that need it are left out of the
result rather than failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import checks
import workloads

DEFICIENCY_SIZES = {8: 7, 16: 5, 24: 3, 32: 3}  # n -> instances solved per variant
IMPORT_REPEATS = 3
LOAD_REPEATS = 30
CLI_REPEATS = 5
IB_RUNS = 2  # instances; each holds IB_PER_ROUND problems

#: finexp names wrapped with a span, as (module, attribute, span name).
SPANNED = [
    ("finexp.deficiency", "weighted_directed_deficiency", "deficiency.weighted"),
    ("finexp.deficiency", "directed_deficiency", "deficiency.sup"),
    ("finexp.bottleneck", "ib_learn", "bottleneck.ib_learn"),
    ("finexp.bottleneck", "centroid_step", "bottleneck.centroid_step"),
    ("finexp.bottleneck", "latent_prior_step", "bottleneck.latent_prior_step"),
    ("finexp.bottleneck", "encoder_step", "bottleneck.encoder_step"),
    ("finexp.bottleneck", "ib_objective", "bottleneck.ib_objective"),
    ("finexp.kernels", "bayes_inverse", "kernels.bayes_inverse"),
    ("finexp.reconstruction", "autoencode", "reconstruction.autoencode"),
    ("finexp.reconstruction", "stack", "reconstruction.stack"),
    ("finexp.reconstruction", "generic_quality", "reconstruction.generic_quality"),
    ("finexp.reconstruction", "_encoder_sweep", "reconstruction.encoder_sweep"),
    ("finexp.fileio", "load_experiment", "fileio.load_experiment"),
]

IMPORT_CODE = (
    "import importlib, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "importlib.import_module(sys.argv[1])\n"
    "print(t1 - t0, time.perf_counter() - t1)\n"
)


@dataclass
class LPRecord:
    rows: int
    cols: int
    nnz: int
    iters: float
    seconds: float


def _nnz(a) -> int:
    if a is None:
        return 0
    return int(a.nnz) if hasattr(a, "nnz") else int(np.count_nonzero(a))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.lp: list[LPRecord] = []
        self.absent: set[str] = set()
        self.bookkeeping_s = 0.0  # LP statistics gathered outside the linprog span
        self._stack: list[int] = []
        self._next = 0

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end))

        return wrapper

    def install_linprog(self) -> None:
        """Wrap scipy.optimize.linprog; must run before finexp is imported."""
        import scipy.optimize

        orig = scipy.optimize.linprog
        signature = inspect.signature(orig)
        spanned = self._spanned("scipy.linprog", orig)

        @functools.wraps(orig)
        def linprog(*args, **kwargs):
            bound = signature.bind_partial(*args, **kwargs).arguments
            start = time.perf_counter()
            res = spanned(*args, **kwargs)
            end = time.perf_counter()
            mats = [bound.get("A_ub"), bound.get("A_eq")]
            self.lp.append(LPRecord(
                rows=sum(a.shape[0] for a in mats if a is not None),
                cols=int(np.size(bound["c"])),
                nnz=sum(_nnz(a) for a in mats),
                iters=float(getattr(res, "nit", float("nan"))),
                seconds=end - start,
            ))
            self.bookkeeping_s += time.perf_counter() - end
            return res

        scipy.optimize.linprog = linprog

    def install_finexp(self) -> None:
        """Wrap SPANNED wherever a finexp module binds it, and count kernel constructions."""
        import finexp.kernels

        for module_name, attr, name in SPANNED:
            orig = getattr(sys.modules.get(module_name), attr, None)
            if orig is None:
                self.absent.add(name)
                continue
            _rebind(orig, self._spanned(name, orig))
        kernel = getattr(finexp.kernels, "MarkovKernel", None)
        post_init = getattr(kernel, "__post_init__", None)
        if post_init is None:
            self.absent.add("kernels.MarkovKernel")
            return

        @functools.wraps(post_init)
        def counted(obj):
            self.counts["kernels.MarkovKernel"] += 1
            post_init(obj)

        kernel.__post_init__ = counted

    def mark(self):
        return len(self.spans), Counter(self.counts), len(self.lp)

    def since(self, mark):
        """Per span name (calls, seconds), counter deltas and LP records after ``mark``."""
        spans, counts, lp = mark
        agg: dict[str, list] = {}
        for _, _, name, start, end in self.spans[spans:]:
            calls_seconds = agg.setdefault(name, [0, 0.0])
            calls_seconds[0] += 1
            calls_seconds[1] += end - start
        return agg, self.counts - counts, self.lp[lp:]

    def overhead(self) -> dict:
        """Estimated seconds the tracing has added so far.

        Each span or counted call is charged the measured cost of a span
        wrapper around a no-op; LP bookkeeping is timed directly.  This stays
        readable where machine noise swamps a traced-against-untraced
        comparison of end-to-end times.
        """
        per_call = span_cost()
        calls = len(self.spans) + sum(self.counts.values())
        return {
            "span_cost_s": per_call,
            "spans": len(self.spans),
            "counted_calls": sum(self.counts.values()),
            "lp_bookkeeping_s": self.bookkeeping_s,
            "estimated_s": per_call * calls + self.bookkeeping_s,
        }

    def write(self, path, **extra) -> None:
        doc = {
            **extra,
            "absent_spans": sorted(self.absent),
            "span_fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def span_cost(repeats: int = 200_000) -> float:
    """Seconds a span wrapper adds to one call, measured on a no-op."""

    def noop():
        return None

    wrapped = Tracer()._spanned("noop", noop)
    start = time.perf_counter()
    for _ in range(repeats):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    return max(0.0, (time.perf_counter() - start - bare) / repeats)


def _rebind(orig, wrapper) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "finexp" or module_name.startswith("finexp."):
            for key, val in list(vars(module).items()):
                if val is orig:
                    setattr(module, key, wrapper)


def _median_of(rows: list[dict]) -> dict[str, float]:
    """Per key, the median over the rows that have it."""
    keys = {k for row in rows for k in row}
    return {k: statistics.median([row[k] for row in rows if k in row]) for k in keys}


# --- the layer sweep ---------------------------------------------------------


def import_layers(run) -> dict[str, float]:
    """Import cost in fresh processes, each after numpy: scipy.optimize, finexp."""
    rows = []
    for _ in range(IMPORT_REPEATS):
        for module, name in (("scipy.optimize", "import.scipy_optimize_s"), ("finexp", "import.finexp_s")):
            res = run.child(f"import {module}", [sys.executable, "-c", IMPORT_CODE, module])
            if res is not None:
                numpy_s, module_s = map(float, res.out.split())
                rows.append({"import.numpy_s": numpy_s, name: module_s})
    return _median_of(rows)


def fileio_layers(run) -> dict[str, float]:
    import finexp

    times = []
    for _ in range(LOAD_REPEATS):
        _, seconds = run.call("load", finexp.load_experiment, workloads.SAMPLE)
        if seconds is not None:
            times.append(seconds)
    return {"fileio.load_sample_s": statistics.median(times)} if times else {}


def cli_layers(run, seed: int) -> dict[str, float]:
    """``finexp.cli.main`` in this process, per subcommand, stdout captured."""
    import finexp.cli

    doc = workloads.sample_doc()
    losses = workloads.cli_losses(seed)
    out = {}
    outputs: dict[str, dict] = {}
    for name, sub in workloads.cli_calls(seed).items():
        times = []
        for _ in range(CLI_REPEATS):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code, seconds = run.call(f"cli.{name}", finexp.cli.main, workloads.cli_argv(sub))
            if code is None:  # raised, and run.call counted it
                continue
            if code != 0:
                run.failed += 1
                continue
            times.append(seconds)
            outputs[name] = json.loads(buf.getvalue())
        if name in outputs:
            run.check(f"cli.{name}", workloads.check_cli_output(
                name, sub, outputs[name], doc, losses, outputs.get("deficiency")))
        if times:
            out[f"cli.{name}.main_s"] = statistics.median(times)
    return out


def _lp_metrics(prefix: str, solve_s: float, lp: list[LPRecord]) -> dict[str, float]:
    row = {f"{prefix}.solve_s": solve_s}
    if lp:  # a solve that bypassed linprog leaves these absent, not zero
        linprog_s = sum(r.seconds for r in lp)
        row.update({
            f"{prefix}.linprog_s": linprog_s,
            f"{prefix}.assembly_s": solve_s - linprog_s,
            f"{prefix}.lp_rows": lp[0].rows,
            f"{prefix}.lp_cols": lp[0].cols,
            f"{prefix}.lp_nnz": lp[0].nnz,
            f"{prefix}.lp_iters": sum(r.iters for r in lp),
        })
    return row


def deficiency_layers(run, tracer: Tracer, seed: int) -> dict[str, float]:
    """Both LP variants at n x n x n: assembly against the linprog call."""
    import finexp

    out = {}
    for n, reps in DEFICIENCY_SIZES.items():
        rows = {"weighted": [], "sup": []}
        for r in range(reps):
            inst = workloads.cap_instance(seed, r, n)
            results = {}
            for variant, fn, args in (
                ("weighted", finexp.weighted_directed_deficiency, (inst.first, inst.second, inst.prior)),
                ("sup", finexp.directed_deficiency, (inst.first, inst.second)),
            ):
                mark = tracer.mark()
                results[variant], seconds = run.call(f"deficiency.{variant}.n{n}", fn, *args)
                if seconds is not None:
                    _, _, lp = tracer.since(mark)
                    rows[variant].append(_lp_metrics(f"deficiency.{variant}.n{n}", seconds, lp))
            workloads.deficiency_checks(run, f"deficiency.n{n}", inst, results["weighted"], results["sup"])
        for variant_rows in rows.values():
            out.update(_median_of(variant_rows))
    return out


def bottleneck_layers(run, tracer: Tracer, seed: int) -> dict[str, float]:
    """Per ib_learn run at n = 32, k = 8, beta > 0: time by step and kernel work."""
    rows = []
    for r in range(IB_RUNS):
        inst = workloads.cap_instance(seed, r)
        for loss, beta, s in inst.ib_problems:
            mark = tracer.mark()
            state, seconds = workloads.ib_run(run, "bottleneck.ib_learn", inst, loss, beta, s)
            if state is None:
                continue
            spans, counts, _ = tracer.since(mark)
            row = {"bottleneck.ib_learn_s": seconds,
                   "bottleneck.iterations": len(state.objective_trace) - 1}
            for step in ("centroid_step", "latent_prior_step", "encoder_step", "ib_objective"):
                if f"bottleneck.{step}" not in tracer.absent:
                    row[f"bottleneck.{step}_s"] = spans.get(f"bottleneck.{step}", [0, 0.0])[1]
            if "kernels.bayes_inverse" not in tracer.absent:
                row["kernels.bayes_inverse_calls"] = spans.get("kernels.bayes_inverse", [0, 0.0])[0]
            if "kernels.MarkovKernel" not in tracer.absent:
                row["kernels.markov_kernel_constructions"] = counts["kernels.MarkovKernel"]
            rows.append(row)
    return _median_of(rows)


def reconstruction_layers(run, tracer: Tracer, seed: int) -> dict[str, float]:
    """autoencode and stack runs at n = 32, as in solve_cap's batch."""
    import finexp

    inst = workloads.cap_instance(seed, 0)
    ae_rows, stack_rows = [], []
    for px in inst.data_priors:
        for k in workloads.AUTOENCODE_SIZES:
            mark = tracer.mark()
            res, seconds = run.call("reconstruction.autoencode", finexp.autoencode, px, k)
            if res is None:
                continue
            run.check("reconstruction.autoencode",
                      checks.autoencode(res.epsilon, res.encoder.matrix, res.decoder.matrix, px.mass))
            spans, _, _ = tracer.since(mark)
            row = {"reconstruction.autoencode_s": seconds, "reconstruction.restarts_used": res.restarts_used}
            if "reconstruction.encoder_sweep" not in tracer.absent:
                row["reconstruction.autoencode_sweeps"] = spans.get("reconstruction.encoder_sweep", [0, 0.0])[0]
            ae_rows.append(row)
        for sizes in workloads.STACK_SIZES:
            mark = tracer.mark()
            chain, seconds = run.call("reconstruction.stack", finexp.stack, px, list(sizes))
            if chain is None:
                continue
            run.check("reconstruction.stack", checks.stack(
                chain.total_quality, chain.layer_quality, [k.matrix for k in chain.layers], px.mass))
            spans, _, _ = tracer.since(mark)
            row = {"reconstruction.stack_s": seconds}
            if "reconstruction.generic_quality" not in tracer.absent:
                row["reconstruction.generic_quality_s"] = spans.get("reconstruction.generic_quality", [0, 0.0])[1]
            stack_rows.append(row)
    return {**_median_of(ae_rows), **_median_of(stack_rows)}


def verify_layers(run, tracer: Tracer, seed: int) -> dict[str, float]:
    """Each of the 13 suites in this process, and their LP calls.

    All 13 are timed; the verdict of a seed-dependent suite is not judged.
    """
    import finexp.verify

    out = {}
    mark = tracer.mark()
    for name, (per_trial, fixed) in checks.VERIFY_CHECKS.items():
        report, seconds = run.call(f"verify.{name}", finexp.verify.run_suite, name,
                                   trials=workloads.VERIFY_TRIALS, seed=seed,
                                   max_dim=workloads.VERIFY_MAX_DIM)
        if report is None:
            continue
        expected = per_trial * workloads.VERIFY_TRIALS + fixed
        if report.checks != expected:
            run.check(f"verify.{name}", [f"{report.checks} checks, not {expected}"])
        if not report.passed and name not in checks.SEED_DEPENDENT_SUITES:
            run.check(f"verify.{name}", [f"{report.failures} checks failed"])
        out[f"verify.{name}_s"] = seconds
        out[f"verify.{name}.checks"] = report.checks
    _, _, lp = tracer.since(mark)
    out["deficiency.lp_calls"] = len(lp)
    return out


def layer_sweep(run, tracer: Tracer, seed: int) -> dict[str, float]:
    """Every per-layer metric; the same sweep whatever the workload."""
    out = import_layers(run)
    out.update(fileio_layers(run))
    out.update(cli_layers(run, seed))
    out.update(deficiency_layers(run, tracer, seed))
    out.update(bottleneck_layers(run, tracer, seed))
    out.update(reconstruction_layers(run, tracer, seed))
    out.update(verify_layers(run, tracer, seed))
    return out
