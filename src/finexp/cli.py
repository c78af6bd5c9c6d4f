"""Command line surface: value, deficiency, autoencode, stack, ib, verify.

Each command handler returns its result as a dict and writes nothing to
stdout.  ``main`` is the only stdout writer: it prints that dict once,
through ``_emit``, as one JSON line with sorted keys, and it is the one
place exit codes are chosen.  It returns every exit code, argparse's
included, rather than exiting: a rejected flag or a missing command
returns 2, and ``--help`` prints argparse's help and returns 0.
Diagnostics go to stderr.  Exit codes: 0 success, 1 property failure, 2
input error (including a size too large to allocate), 3 conformance
(space mismatch) error, 4 solver fault (the LP solver failed on a program
that is feasible by construction).  Identical invocations print identical
bytes on one machine (same numpy and scipy versions, numpy SIMD targets
and OpenBLAS core); across machines the printed values agree to 1e-12.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .bottleneck import _largest_rise, ib_distortion, ib_learn
from .decisions import bayes_decision_rule, feature_gap, mutual_information, value
from .deficiency import SolverError, directed_deficiency, weighted_directed_deficiency
from .fileio import DEFAULT_MAX_DIM, ExperimentFile, SchemaError, load_experiment
from .kernels import SpaceMismatchError, pushforward
from .reconstruction import autoencode, stack
from .verify import SUITES, run_all, run_suite

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_CONFORMANCE_ERROR = 3
EXIT_SOLVER_FAULT = 4

_IGNORED_SEED = "ignored: the optimal autoencoder is computed exactly, without randomness"


def _emit(payload: dict) -> None:
    # numpy floats are float subclasses and print as floats; arrays and numpy bools need tolist
    sys.stdout.write(json.dumps(payload, sort_keys=True, default=lambda obj: obj.tolist()) + "\n")


def _finite_nonnegative(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _int_in(low: int, high: int | None = None):
    """An argparse type for integers from ``low`` to ``high`` (None: no cap); argparse names the flag in errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be an integer <= {high}, got {text!r}")
        return value

    return parse


def _code_sizes(text: str) -> list[int]:
    """Comma-separated code sizes, each an integer >= 1; empty entries are skipped."""
    try:
        sizes = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers >= 1, got {text!r}")
    return sizes


def _load(args, flag: str = "", sizes: Sequence[int] = ()) -> ExperimentFile:
    """Check ``flag``'s code ``sizes`` against the label cap, then load ``args.file`` under it.

    --allow-large lifts the cap on both, with a warning on stderr.
    """
    if args.allow_large:
        sys.stderr.write("warning: per-space size cap disabled; LP solves may be slow\n")
        return load_experiment(args.file, max_dim=math.inf)
    for k in sizes:
        if k > DEFAULT_MAX_DIM:
            raise SchemaError(f"{flag} {k} exceeds the cap of {DEFAULT_MAX_DIM}; pass --allow-large to lift it")
    return load_experiment(args.file)


def _cmd_value(args) -> dict:
    ef = _load(args)
    experiment = ef.kernel(args.experiment)
    prior = ef.distribution(args.prior)
    loss = ef.loss(args.loss)
    rule = bayes_decision_rule(loss, prior, experiment)
    labels = {
        x_label: rule.target.labels[int(np.argmax(rule.matrix[:, j]))]
        for j, x_label in enumerate(rule.source.labels)
    }
    return {"value": value(loss, prior, experiment), "bayes_rule": labels}


def _cmd_deficiency(args) -> dict:
    ef = _load(args)
    first = ef.kernel(args.first)
    second = ef.kernel(args.second)
    if args.sup:
        res = directed_deficiency(first, second)
        factors = res.delta <= args.factor_tol
    else:
        prior = ef.distribution(args.prior)
        res = weighted_directed_deficiency(first, second, prior)
        # a zero-mass hypothesis would let mismatches hide, so the test is
        # only conclusive for strictly positive priors
        factors = res.delta <= args.factor_tol if np.all(prior.mass > 0) else None
    return {
        "delta": res.delta,
        "witness": res.witness.matrix,
        "factors_through": factors,
        "objective_gap": res.objective_gap,
    }


def _cmd_autoencode(args) -> dict:
    ef = _load(args, "--latent", [args.latent])
    res = autoencode(ef.distribution(args.prior), args.latent)
    return {"encoder": res.encoder.matrix, "decoder": res.decoder.matrix, "epsilon": res.epsilon}


def _cmd_stack(args) -> dict:
    ef = _load(args, "--sizes", args.sizes)
    chain = stack(ef.distribution(args.prior), args.sizes)
    bound = sum(chain.layer_quality)
    return {
        "layers": [k.matrix for k in chain.layers],
        "layer_epsilon": chain.layer_quality,
        "total_epsilon": chain.total_quality,
        "bound": bound,
        "bound_holds": chain.total_quality <= bound + 1e-6,
    }


def _cmd_ib(args) -> dict:
    ef = _load(args, "--latent", [args.latent])
    experiment = ef.kernel(args.experiment)
    prior = ef.distribution(args.prior)
    loss = ef.loss(args.loss)
    state = ib_learn(
        loss, prior, experiment, latent_size=args.latent, beta=args.beta,
        max_iters=args.iters, seed=args.seed,
    )
    return {
        "encoder": state.encoder.matrix,
        "centroid_posteriors": state.centroid_posteriors.matrix,
        "latent_prior": state.latent_prior.mass,
        "objective_trace": state.objective_trace,
        "feature_gap": feature_gap(loss, prior, experiment, state.encoder),
        "distortion": ib_distortion(state, loss, prior, experiment),
        "mutual_information_bits": mutual_information(pushforward(experiment, prior), state.encoder),
        "trace_nonincreasing": _largest_rise(state.objective_trace) <= 1e-9,
    }


def _cmd_verify(args) -> dict:
    if args.suite == "all":
        reports = run_all(trials=args.trials, seed=args.seed, max_dim=args.max_dim)
    else:
        reports = [run_suite(args.suite, trials=args.trials, seed=args.seed, max_dim=args.max_dim)]
    return {"suites": [r.to_jsonable() for r in reports], "all_pass": all(r.passed for r in reports)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finexp",
        description="Finite-experiment toolkit: values, deficiencies, and feature learners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p):
        p.add_argument("file", help="experiment JSON file")
        p.add_argument(
            "--allow-large", action="store_true", help=f"lift the {DEFAULT_MAX_DIM}-label cap on spaces and code sizes"
        )

    p = sub.add_parser("value", help="Bayes value and rule of a learning problem")
    add_file(p)
    p.add_argument("--experiment", required=True, help="kernel name")
    p.add_argument("--prior", required=True, help="distribution name")
    p.add_argument("--loss", required=True, help="loss name")
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("deficiency", help="directed deficiency with witness")
    add_file(p)
    p.add_argument("first", help="kernel name of the simulating experiment")
    p.add_argument("second", help="kernel name of the simulated experiment")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prior", help="distribution name for the weighted variant")
    group.add_argument("--sup", action="store_true", help="worst case over priors")
    p.add_argument("--factor-tol", type=_finite_nonnegative, default=1e-6, help="factorization tolerance")
    p.set_defaults(func=_cmd_deficiency)

    p = sub.add_parser("autoencode", help="optimal discrete autoencoder of a prior")
    add_file(p)
    p.add_argument("--prior", required=True)
    p.add_argument("--latent", type=_int_in(1), required=True, help="code size")
    p.add_argument("--seed", type=int, default=0, help=_IGNORED_SEED)
    p.set_defaults(func=_cmd_autoencode)

    p = sub.add_parser("stack", help="greedy layerwise stack of optimal autoencoders")
    add_file(p)
    p.add_argument("--prior", required=True)
    p.add_argument("--sizes", type=_code_sizes, required=True, help="comma-separated code sizes, e.g. 4,2")
    p.add_argument("--seed", type=int, default=0, help=_IGNORED_SEED)
    p.set_defaults(func=_cmd_stack)

    p = sub.add_parser("ib", help="information-bottleneck feature learner")
    add_file(p)
    p.add_argument("--experiment", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--loss", required=True)
    p.add_argument("--latent", type=_int_in(1), required=True)
    p.add_argument("--beta", type=_finite_nonnegative, default=0.0)
    p.add_argument("--iters", type=_int_in(1), default=200)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.set_defaults(func=_cmd_ib)

    p = sub.add_parser("verify", help="run seeded property suites")
    p.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p.add_argument("--trials", type=_int_in(1), default=100)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument(
        "--max-dim", type=_int_in(2, DEFAULT_MAX_DIM), default=6, help=f"largest sampled space size (cap {DEFAULT_MAX_DIM})"
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on a rejected flag, a missing command and --help
        return exc.code
    try:
        payload = args.func(args)
    except SpaceMismatchError as err:
        sys.stderr.write(f"conformance error: {err}\n")
        return EXIT_CONFORMANCE_ERROR
    except SolverError as err:
        sys.stderr.write(f"solver fault: {err}\n")
        return EXIT_SOLVER_FAULT
    except (ValueError, MemoryError) as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_INPUT_ERROR
    _emit(payload)
    return EXIT_PROPERTY_FAILURE if payload.get("all_pass") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
