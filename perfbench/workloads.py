"""The three workloads, their seeded inputs, and the timing of one run.

Each workload is a closed loop: one operation at a time, the next started
when the previous one has returned, in whole rounds until the run's time is
up.  CLI calls are child processes of this one, started and reaped one at a
time.  Inputs come from the workload seed through numpy's generator; finexp
only ever sees the generated inputs.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "scripts" / "sample_experiment.json"
RESULTS = Path(__file__).resolve().parent / "results"

#: The solve_cap size: the 32-label cap on file spaces.
CAP = 32
IB_PER_ROUND = 8
IB_LATENT = 8
IB_ACTIONS = 16
#: Runs at this size and beta take 23 to 200 iterations to stall, which would make the
#: time per run a draw of the iteration count; capped, each run does the
#: same work, and bottleneck.iterations shows a change that stalls sooner.
IB_MAX_ITERS = 20
VERIFY_TRIALS = 100
VERIFY_MAX_DIM = 6

#: A fresh process that imports finexp, loads the sample file and solves one
#: small LP: the set-up every workload pays before its first result.
SETUP_CODE = (
    "import sys, finexp, finexp.cli\n"
    "ef = finexp.load_experiment(sys.argv[1])\n"
    "finexp.weighted_directed_deficiency(ef.kernel('bsc'), ef.kernel('ident'), ef.distribution('uniform'))\n"
)
SETUP_REPEATS = 3

#: A fresh process that starts Python and imports finexp's dependencies but
#: nothing of finexp.  The machine's speed drifts by up to a fifth over
#: minutes, and the time of a fresh process drifts with it; started right
#: before each cold call and set-up process, the reference measures the
#: speed at that moment.
REFERENCE_CODE = "import numpy, scipy.optimize"
#: The reference's median seconds on the machine behind the README's figures.
#: Cold-call and set-up times are reported scaled by REFERENCE_S over the
#: time of the reference started just before them.
REFERENCE_S = 0.9


@dataclass
class Child:
    out: bytes
    err: bytes
    returncode: int
    seconds: float
    rss_mb: float


def run_child(argv: list[str]) -> Child:
    """Run one child to completion; wall time from spawn to reap, and its peak RSS."""
    import subprocess

    err_path = RESULTS / "child.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(out, err_path.read_bytes(), proc.returncode, seconds, usage.ru_maxrss / 1024.0)


class Run:
    """Samples, operation counts and check results of one benchmark run."""

    def __init__(self, seconds: float, min_rounds: int = 1):
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0

    def rounds(self):
        """Round indices until the run's time is up; every round is whole."""
        start = time.perf_counter()
        r = 0
        while r < self.min_rounds or time.perf_counter() - start < self.seconds:
            yield r
            r += 1

    def call(self, label: str, fn, *args, **kwargs):
        """One in-process operation; returns (result, seconds), or (None, None) if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as err:  # a raising operation is counted, not fatal
            self.failed += 1
            sys.stderr.write(f"{label}: {type(err).__name__}: {err}\n")
            return None, None
        return result, time.perf_counter() - start

    def child(self, label: str, argv: list[str]) -> Child | None:
        """One child-process operation; None if it exited non-zero."""
        self.attempted += 1
        res = run_child(argv)
        self.peak_rss_mb = max(self.peak_rss_mb, res.rss_mb)
        if res.returncode != 0:
            self.failed += 1
            sys.stderr.write(f"{label}: exit {res.returncode}: {res.err.decode(errors='replace')[-2000:]}\n")
            return None
        return res

    def check(self, label: str, problems: list[str]) -> None:
        for p in problems:
            self.problems.append(f"{label}: {p}")
            sys.stderr.write(f"check failed: {label}: {p}\n")

    def scale(self) -> float:
        """REFERENCE_S over the time of a reference process started now."""
        ref = run_child([sys.executable, "-c", REFERENCE_CODE])
        if ref.returncode != 0:
            raise RuntimeError(f"reference process failed: {ref.err.decode(errors='replace')}")
        self.samples["reference_s"].append(ref.seconds)
        return REFERENCE_S / ref.seconds

    def setup(self) -> None:
        """Time SETUP_REPEATS fresh set-up processes; their median is setup_s."""
        for _ in range(SETUP_REPEATS):
            scale = self.scale()
            res = run_child([sys.executable, "-c", SETUP_CODE, str(SAMPLE)])
            if res.returncode != 0:
                raise RuntimeError(f"set-up process failed: {res.err.decode(errors='replace')}")
            self.samples["wall.setup_s"].append(res.seconds)
            self.samples["setup_s"].append(res.seconds * scale)

    def round_s(self, per_round: dict[str, int]) -> float | None:
        """One round's seconds: each operation's median times its calls per round, summed."""
        if not all(self.samples.get(name) for name in per_round):
            return None
        return sum(calls * statistics.median(self.samples[name]) for name, calls in per_round.items())

    def metrics(self, units: dict[str, str], per_round: dict[str, int]) -> dict:
        """The end-to-end metrics; one that has no sample is left out."""
        values = {
            "setup_s": statistics.median(self.samples["setup_s"]) if self.samples.get("setup_s") else None,
            "round_s": self.round_s(per_round),
            "peak_rss_mb": self.peak_rss_mb or None,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in units.items() if values.get(name) is not None}


# --- seeded inputs ---------------------------------------------------------


def rng_for(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def kernel_matrix(rng, n_out: int, n_in: int, alpha: float = 1.0) -> np.ndarray:
    return rng.dirichlet(np.full(n_out, alpha), size=n_in).T


def sample_doc() -> dict:
    return json.loads(SAMPLE.read_text(encoding="utf-8"))


def cli_calls(seed: int) -> dict[str, list[str]]:
    """Arguments of each subcommand on the sample file, drawn from the seed."""
    rng = rng_for(seed, 1)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    first, second = pick(
        [("blind", "ident"), ("bsc", "ident"), ("ident", "bsc"), ("blind", "bsc"), ("bsc", "blind")]
    )
    prior = ["--prior", "uniform"]
    return {
        "value": ["value", "--experiment", pick(["bsc", "ident", "blind"]), *prior,
                  "--loss", pick(["zero_one", "cost_sensitive"])],
        "deficiency": ["deficiency", first, second, *prior],
        "deficiency_sup": ["deficiency", first, second, "--sup"],
        "autoencode": ["autoencode", "--prior", "pixels", "--latent", str(pick([2, 3, 4])),
                       "--seed", str(int(rng.integers(2**31 - 1)))],
        "stack": ["stack", "--prior", "pixels", "--sizes", pick(["4,2", "6,3", "5,3,1"]),
                  "--seed", str(int(rng.integers(2**31 - 1)))],
        "ib": ["ib", "--experiment", pick(["bsc", "ident"]), *prior,
               "--loss", pick(["zero_one", "cost_sensitive"]), "--latent", str(pick([1, 2])),
               "--beta", str(pick([0.05, 0.1, 0.5])), "--seed", str(int(rng.integers(2**31 - 1)))],
    }


def cli_losses(seed: int) -> np.ndarray:
    """Random losses over the sample file's two hypotheses, for value-gap lower bounds."""
    return rng_for(seed, 2).uniform(-1.0, 1.0, size=(256, 2, 3))


def cli_argv(sub: list[str]) -> list[str]:
    """The subcommand's arguments with the sample file in the place argparse wants it."""
    return [sub[0], str(SAMPLE), *sub[1:]]


def _flag(sub: list[str], name: str) -> str:
    return sub[sub.index(name) + 1]


def check_cli_output(name: str, sub: list[str], out: dict, doc: dict, losses, weighted: dict | None) -> list[str]:
    """Checks for one subcommand's JSON, from the sample file as parsed here."""
    kernels, dists = doc["kernels"], doc["distributions"]

    def matrix(kernel):
        return np.array(kernels[kernel]["matrix"], dtype=float)

    if name == "value":
        k = _flag(sub, "--experiment")
        loss = np.array(doc["losses"][_flag(sub, "--loss")]["values"], dtype=float)
        x_labels = doc["spaces"][kernels[k]["to"]]
        a_labels = doc["spaces"][doc["losses"][_flag(sub, "--loss")]["actions"]]
        rule = [a_labels.index(out["bayes_rule"][x]) for x in x_labels]
        return checks.value(out["value"], rule, matrix(k), np.array(dists["uniform"]["mass"]), loss)
    if name in ("deficiency", "deficiency_sup"):
        first, second = matrix(sub[1]), matrix(sub[2])
        prior = np.array(dists["uniform"]["mass"], dtype=float)
        delta, witness = out["delta"], np.array(out["witness"], dtype=float)
        if name == "deficiency":
            problems = checks.deficiency_upper(delta, first, second, witness, prior)
            problems += checks.deficiency_lower(delta, first, second, [prior], losses)
            if out["factors_through"] != (delta <= 1e-6):
                problems.append(f"factors_through {out['factors_through']} disagrees with delta {delta!r}")
            return problems
        priors = [prior, *np.eye(prior.size)]
        problems = checks.deficiency_upper(delta, first, second, witness)
        problems += checks.deficiency_lower(delta, first, second, priors, losses)
        if weighted is not None:
            problems += checks.sup_at_least_weighted(delta, weighted["delta"])
        return problems
    if name == "autoencode":
        prior = np.array(dists["pixels"]["mass"], dtype=float)
        return checks.autoencode(out["epsilon"], out["encoder"], out["decoder"], prior)
    if name == "stack":
        prior = np.array(dists["pixels"]["mass"], dtype=float)
        problems = checks.stack(out["total_epsilon"], out["layer_epsilon"], out["layers"], prior)
        if out["bound_holds"] is not True:
            problems.append("bound_holds is not true")
        return problems
    if name == "ib":
        return checks.ib(out["objective_trace"], out["distortion"], out["encoder"],
                         out["centroid_posteriors"], out["latent_prior"])
    raise ValueError(f"no check for subcommand {name}")


# --- workloads -------------------------------------------------------------


def cli_cold(run: Run, seed: int) -> None:
    """Each subcommand except verify as a fresh ``python -m finexp.cli`` process."""
    calls = cli_calls(seed)
    doc = sample_doc()
    losses = cli_losses(seed)
    first_bytes: dict[str, bytes] = {}
    for _ in run.rounds():
        outputs = {}
        for name, sub in calls.items():
            scale = run.scale()
            res = run.child(name, [sys.executable, "-m", "finexp.cli", *cli_argv(sub)])
            if res is None:
                continue
            run.samples[f"wall.cli_{name}_s"].append(res.seconds)
            run.samples[f"cli_{name}_s"].append(res.seconds * scale)
            outputs[name] = json.loads(res.out)
            if name in first_bytes:
                run.check(name, checks.same_bytes(first_bytes[name], res.out))
            else:
                first_bytes[name] = res.out
                run.check(name, check_cli_output(name, sub, outputs[name], doc, losses,
                                                 outputs.get("deficiency")))


@dataclass
class CapInstance:
    first: object
    second: object
    garbled: object
    prior: object
    losses: np.ndarray
    ib_problems: list
    data_priors: list


def cap_instance(seed: int, r: int, n: int = CAP):
    """Round r's random problems at size n, as finexp values."""
    import finexp

    rng = rng_for(seed, 3, r, n)
    theta = finexp.FiniteSpace.of_size(n, "t")
    x_space = finexp.FiniteSpace.of_size(n, "x")
    y_space = finexp.FiniteSpace.of_size(n, "y")
    z_space = finexp.FiniteSpace.of_size(max(2, n // 4), "z")
    first = finexp.MarkovKernel(theta, x_space, kernel_matrix(rng, n, n))
    second = finexp.MarkovKernel(theta, y_space, kernel_matrix(rng, n, n))
    garble = finexp.MarkovKernel(x_space, z_space, kernel_matrix(rng, z_space.size, n))
    prior = finexp.Distribution(theta, rng.dirichlet(np.ones(n)))
    losses = rng.uniform(-1.0, 1.0, size=(64, n, 8))
    actions = finexp.FiniteSpace.of_size(IB_ACTIONS, "a")
    ib_problems = [
        (
            finexp.LossMatrix(theta, actions, rng.uniform(-1.0, 1.0, size=(n, IB_ACTIONS))),
            float(rng.uniform(0.05, 0.15)),
            int(rng.integers(2**31 - 1)),
        )
        for _ in range(IB_PER_ROUND)
    ]
    data_priors = [finexp.Distribution(x_space, rng.dirichlet(np.full(n, 0.5))) for _ in range(2)]
    return CapInstance(first, second, finexp.compose(garble, first), prior, losses, ib_problems, data_priors)


#: Code sizes of the autoencode and stack runs in one batch, per data prior.
AUTOENCODE_SIZES = (4, 8, 16)
STACK_SIZES = ((16, 8, 4), (12, 3))


def deficiency_checks(run: Run, label: str, inst: CapInstance, weighted, sup) -> None:
    f, s, p = inst.first.matrix, inst.second.matrix, inst.prior.mass
    if weighted is not None:
        run.check(label, checks.deficiency_upper(weighted.delta, f, s, weighted.witness.matrix, p))
        run.check(label, checks.deficiency_lower(weighted.delta, f, s, [p], inst.losses))
    if sup is not None:
        run.check(label + "_sup", checks.deficiency_upper(sup.delta, f, s, sup.witness.matrix))
        run.check(label + "_sup", checks.deficiency_lower(sup.delta, f, s, [p], inst.losses))
    if weighted is not None and sup is not None:
        run.check(label, checks.sup_at_least_weighted(sup.delta, weighted.delta))


def ib_run(run: Run, label: str, inst: CapInstance, loss, beta: float, seed: int):
    import finexp

    state, seconds = run.call(label, finexp.ib_learn, loss, inst.prior, inst.first,
                              latent_size=IB_LATENT, beta=beta, max_iters=IB_MAX_ITERS, seed=seed)
    if state is not None:
        distortion = finexp.ib_distortion(state, loss, inst.prior, inst.first)
        run.check(label, checks.ib(state.objective_trace, distortion, state.encoder.matrix,
                                   state.centroid_posteriors.matrix, state.latent_prior.mass))
    return state, seconds


def autoencode_stack_batch(run: Run, label: str, inst: CapInstance) -> float | None:
    """Every autoencode and stack run of one round; the batch's total seconds."""
    import finexp

    total, ok = 0.0, True
    for px in inst.data_priors:
        for k in AUTOENCODE_SIZES:
            res, seconds = run.call(label, finexp.autoencode, px, k)
            if res is None:
                ok = False
                continue
            total += seconds
            run.check(label, checks.autoencode(res.epsilon, res.encoder.matrix, res.decoder.matrix, px.mass))
        for sizes in STACK_SIZES:
            chain, seconds = run.call(label, finexp.stack, px, list(sizes))
            if chain is None:
                ok = False
                continue
            total += seconds
            run.check(label, checks.stack(chain.total_quality, chain.layer_quality,
                                          [k.matrix for k in chain.layers], px.mass))
    return total if ok else None


def solve_cap(run: Run, seed: int) -> None:
    """Seeded instances at the 32-label cap, in this process after import and warm-up."""
    import finexp

    warm = cap_instance(seed, 0, n=6)
    run.call("warm-up", finexp.weighted_directed_deficiency, warm.first, warm.second, warm.prior)
    run.call("warm-up", finexp.directed_deficiency, warm.first, warm.second)
    loss, beta, s = warm.ib_problems[0]
    run.call("warm-up", finexp.ib_learn, loss, warm.prior, warm.first, latent_size=2, beta=beta, seed=s)
    run.call("warm-up", finexp.stack, warm.data_priors[0], [3, 2])

    for r in run.rounds():
        inst = cap_instance(seed, r)
        weighted, seconds = run.call("deficiency_weighted", finexp.weighted_directed_deficiency,
                                     inst.first, inst.second, inst.prior)
        if seconds is not None:
            run.samples["deficiency_weighted_s"].append(seconds)
        sup, seconds = run.call("deficiency_sup", finexp.directed_deficiency, inst.first, inst.second)
        if seconds is not None:
            run.samples["deficiency_sup_s"].append(seconds)
        deficiency_checks(run, "deficiency", inst, weighted, sup)
        garbled, seconds = run.call("garbling", finexp.weighted_directed_deficiency,
                                    inst.first, inst.garbled, inst.prior)
        if garbled is not None:
            run.samples["deficiency_garbled_s"].append(seconds)
            run.check("garbling", checks.garbling(garbled.delta))
        for loss, beta, s in inst.ib_problems:
            _, seconds = ib_run(run, "ib_learn", inst, loss, beta, s)
            if seconds is not None:
                run.samples["ib_learn_s"].append(seconds)
        seconds = autoencode_stack_batch(run, "autoencode_stack", inst)
        if seconds is not None:
            run.samples["autoencode_stack_s"].append(seconds)
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Every suite whose verdict holds on every seed, each through ``finexp.cli.main``
#: as ``finexp verify --suite <name>`` would run it, in one fresh process.
VERIFY_SUITES = [name for name in checks.VERIFY_CHECKS if name not in checks.SEED_DEPENDENT_SUITES]
VERIFY_CODE = (
    "import sys, finexp.cli\n"
    "flags = sys.argv[2:]\n"
    "sys.exit(max([finexp.cli.main(['verify', '--suite', s, *flags]) for s in sys.argv[1].split(',')]))\n"
)


def verify_argv(seed: int) -> list[str]:
    return [sys.executable, "-c", VERIFY_CODE, ",".join(VERIFY_SUITES), "--trials", str(VERIFY_TRIALS),
            "--max-dim", str(VERIFY_MAX_DIM), "--seed", str(seed)]


def verify_payload(out: bytes) -> dict:
    """The per-suite JSON lines of one verify process, as one ``verify --suite all`` report."""
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    return {"suites": [s for line in lines for s in line["suites"]],
            "all_pass": bool(lines) and all(line["all_pass"] for line in lines)}


def verify_all(run: Run, seed: int) -> None:
    """The verify suites in a fresh process, with the workload seed."""
    first = None
    for _ in run.rounds():
        res = run.child("verify", verify_argv(seed))
        if res is None:
            continue
        run.samples["verify_all_s"].append(res.seconds)
        if first is None:
            first = res.out
            run.check("verify", checks.verify(verify_payload(res.out), res.returncode,
                                              VERIFY_TRIALS, VERIFY_SUITES))
        else:
            run.check("verify", checks.same_bytes(first, res.out))


#: Workload name -> (loop, fewest rounds, the round's operations).  The
#: operations map each per-call sample to its calls per round; round_s
#: sums their medians.
WORKLOADS = {
    "cli_cold": (cli_cold, 2, {f"cli_{name}_s": 1 for name in cli_calls(0)}),
    "solve_cap": (solve_cap, 1, {"deficiency_weighted_s": 1, "deficiency_sup_s": 1, "deficiency_garbled_s": 1,
                                 "ib_learn_s": IB_PER_ROUND, "autoencode_stack_s": 1}),
    "verify_all": (verify_all, 2, {"verify_all_s": 1}),
}
