"""Command line surface: value, deficiency, autoencode, stack, ib, verify.

All results are JSON on stdout with sorted keys; diagnostics go to stderr.
Exit codes: 0 success, 1 property failure, 2 input error, 3 conformance
(space mismatch) error, 4 solver fault (the LP solver failed on a program
that is feasible by construction).  Every command is deterministic given
its flags: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .bottleneck import ib_distortion, ib_learn
from .decisions import bayes_decision_rule, feature_gap, mutual_information, value
from .deficiency import SolverError, directed_deficiency, weighted_directed_deficiency
from .fileio import DEFAULT_MAX_DIM, ExperimentFile, SchemaError, load_experiment
from .kernels import MarkovKernel, SpaceMismatchError, pushforward
from .reconstruction import autoencode, stack
from .verify import SUITES, run_all, run_suite

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_CONFORMANCE_ERROR = 3
EXIT_SOLVER_FAULT = 4

_IGNORED_SEED = "ignored: the optimal autoencoder is computed exactly, without randomness"


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _matrix(kernel: MarkovKernel) -> list[list[float]]:
    return [[float(v) for v in row] for row in kernel.matrix]


def _finite_nonnegative(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _check_code_sizes(args, flag: str, sizes: list[int]) -> None:
    """Code sizes share the file spaces' label cap unless --allow-large lifts it."""
    if args.allow_large:
        return
    for k in sizes:
        if k > DEFAULT_MAX_DIM:
            raise SchemaError(
                f"{flag} {k} exceeds the cap of {DEFAULT_MAX_DIM}; pass --allow-large to lift it"
            )


def _load(args) -> ExperimentFile:
    max_dim = DEFAULT_MAX_DIM if not args.allow_large else 10**9
    if args.allow_large:
        sys.stderr.write(
            "warning: per-space size cap disabled; dense LP solves may be slow\n"
        )
    return load_experiment(args.file, max_dim=max_dim)


def _cmd_value(args) -> int:
    ef = _load(args)
    experiment = ef.kernel(args.experiment)
    prior = ef.distribution(args.prior)
    loss = ef.loss(args.loss)
    v = value(loss, prior, experiment)
    rule = bayes_decision_rule(loss, prior, experiment)
    labels = {
        x_label: rule.target.labels[int(np.argmax(rule.matrix[:, j]))]
        for j, x_label in enumerate(rule.source.labels)
    }
    _emit({"value": float(v), "bayes_rule": labels})
    return EXIT_OK


def _cmd_deficiency(args) -> int:
    ef = _load(args)
    first = ef.kernel(args.first)
    second = ef.kernel(args.second)
    if args.sup:
        res = directed_deficiency(first, second)
        factors = bool(res.delta <= args.factor_tol)
    else:
        prior = ef.distribution(args.prior)
        res = weighted_directed_deficiency(first, second, prior)
        # a zero-mass hypothesis would let mismatches hide, so the test is
        # only conclusive for strictly positive priors
        factors = bool(res.delta <= args.factor_tol) if np.all(prior.mass > 0) else None
    _emit(
        {
            "delta": float(res.delta),
            "witness": _matrix(res.witness),
            "factors_through": factors,
            "objective_gap": float(res.objective_gap),
        }
    )
    return EXIT_OK


def _cmd_autoencode(args) -> int:
    _check_code_sizes(args, "--latent", [args.latent])
    ef = _load(args)
    prior = ef.distribution(args.prior)
    res = autoencode(prior, args.latent)
    _emit(
        {
            "encoder": _matrix(res.encoder),
            "decoder": _matrix(res.decoder),
            "epsilon": float(res.epsilon),
        }
    )
    return EXIT_OK


def _cmd_stack(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    _check_code_sizes(args, "--sizes", sizes)
    ef = _load(args)
    prior = ef.distribution(args.prior)
    chain = stack(prior, sizes)
    bound = float(sum(chain.layer_quality))
    _emit(
        {
            "layers": [_matrix(k) for k in chain.layers],
            "layer_epsilon": [float(e) for e in chain.layer_quality],
            "total_epsilon": float(chain.total_quality),
            "bound": bound,
            "bound_holds": chain.total_quality <= bound + 1e-6,
        }
    )
    return EXIT_OK


def _cmd_ib(args) -> int:
    _check_code_sizes(args, "--latent", [args.latent])
    ef = _load(args)
    experiment = ef.kernel(args.experiment)
    prior = ef.distribution(args.prior)
    loss = ef.loss(args.loss)
    state = ib_learn(
        loss, prior, experiment, latent_size=args.latent, beta=args.beta,
        max_iters=args.iters, seed=args.seed,
    )
    trace = [float(v) for v in state.objective_trace]
    data_prior = pushforward(experiment, prior)
    _emit(
        {
            "encoder": _matrix(state.encoder),
            "centroid_posteriors": _matrix(state.centroid_posteriors),
            "latent_prior": [float(v) for v in state.latent_prior.mass],
            "objective_trace": trace,
            "feature_gap": float(feature_gap(loss, prior, experiment, state.encoder)),
            "distortion": float(ib_distortion(state, loss, prior, experiment)),
            "mutual_information_bits": float(mutual_information(data_prior, state.encoder)),
            "trace_nonincreasing": bool(all(b - a <= 1e-9 for a, b in zip(trace, trace[1:]))),
        }
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.max_dim > DEFAULT_MAX_DIM:
        raise SchemaError(f"--max-dim {args.max_dim} exceeds the cap of {DEFAULT_MAX_DIM}")
    if args.suite == "all":
        reports = run_all(trials=args.trials, seed=args.seed, max_dim=args.max_dim)
    else:
        if args.suite not in SUITES:
            raise SchemaError(f"unknown suite {args.suite!r}; available: {sorted(SUITES)} or 'all'")
        reports = [run_suite(args.suite, trials=args.trials, seed=args.seed, max_dim=args.max_dim)]
    _emit(
        {
            "suites": [r.to_jsonable() for r in reports],
            "all_pass": all(r.passed for r in reports),
        }
    )
    return EXIT_OK if all(r.passed for r in reports) else EXIT_PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finexp",
        description="Finite-experiment toolkit: values, deficiencies, and feature learners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p):
        p.add_argument("file", help="experiment JSON file")
        p.add_argument(
            "--allow-large", action="store_true", help="lift the 32-label cap on spaces and code sizes"
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
    p.add_argument("--latent", type=int, required=True, help="code size")
    p.add_argument("--seed", type=int, default=0, help=_IGNORED_SEED)
    p.set_defaults(func=_cmd_autoencode)

    p = sub.add_parser("stack", help="greedy layerwise stack of optimal autoencoders")
    add_file(p)
    p.add_argument("--prior", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated code sizes, e.g. 4,2")
    p.add_argument("--seed", type=int, default=0, help=_IGNORED_SEED)
    p.set_defaults(func=_cmd_stack)

    p = sub.add_parser("ib", help="information-bottleneck feature learner")
    add_file(p)
    p.add_argument("--experiment", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--loss", required=True)
    p.add_argument("--latent", type=int, required=True)
    p.add_argument("--beta", type=_finite_nonnegative, default=0.0)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_ib)

    p = sub.add_parser("verify", help="run seeded property suites")
    p.add_argument("--suite", default="all", help=f"one of {sorted(SUITES)} or 'all'")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-dim", type=int, default=6, help="largest sampled space size (cap 32)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_INPUT_ERROR
    except SpaceMismatchError as err:
        sys.stderr.write(f"conformance error: {err}\n")
        return EXIT_CONFORMANCE_ERROR
    except SolverError as err:
        sys.stderr.write(f"solver fault: {err}\n")
        return EXIT_SOLVER_FAULT
    except ValueError as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
