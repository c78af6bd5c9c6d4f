"""Output checks computed apart from finexp.

Every function here uses numpy alone and never imports the program, so a
fault in finexp cannot hide by being reproduced on both sides of a
comparison.  Each check returns a list of problems; an empty list passes.
No check compares a witness or a float against stored bytes: the optimal
witness of a deficiency LP is not unique, so outputs are judged by the
properties they must have.

Matrices follow finexp's convention: column j of a kernel is the output
distribution given input j, and a loss is indexed [hypothesis, action].
"""

from __future__ import annotations

import itertools

import numpy as np

#: LP solutions and the values read off them agree to this tolerance.
LP_TOL = 1e-6
#: Closed-form quantities recomputed here agree to this tolerance.
EXACT_TOL = 1e-9


def stochastic(matrix, what: str) -> list[str]:
    """Nonnegative entries and columns summing to one."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    problems = []
    if not np.all(np.isfinite(m)):
        problems.append(f"{what} has non-finite entries")
    elif m.min() < -EXACT_TOL:
        problems.append(f"{what} has a negative entry {float(m.min())!r}")
    sums = m.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > EXACT_TOL):
        problems.append(f"{what} has a column summing to {float(sums[np.argmax(np.abs(sums - 1.0))])!r}")
    return problems


def bayes_risks(kernel, prior, losses) -> np.ndarray:
    """Bayes risk of one experiment under a batch of losses shaped [n, theta, action]."""
    joint = np.asarray(kernel) * np.asarray(prior)[None, :]
    return np.einsum("xt,nta->nxa", joint, losses).min(axis=2).sum(axis=1)


def brute_force_value(kernel, prior, loss) -> float:
    """Smallest risk over every deterministic rule from outputs to actions."""
    joint = np.asarray(kernel) * np.asarray(prior)[None, :]
    loss = np.asarray(loss)
    nx, na = joint.shape[0], loss.shape[1]
    return min(
        sum(float(joint[x] @ loss[:, rule[x]]) for x in range(nx))
        for rule in itertools.product(range(na), repeat=nx)
    )


def value(reported: float, rule: list[int], kernel, prior, loss) -> list[str]:
    """The value equals brute force, and the reported rule attains it."""
    problems = []
    best = brute_force_value(kernel, prior, loss)
    if abs(reported - best) > EXACT_TOL:
        problems.append(f"value {reported!r} differs from brute force {best!r}")
    joint = np.asarray(kernel) * np.asarray(prior)[None, :]
    risk = sum(float(joint[x] @ np.asarray(loss)[:, a]) for x, a in enumerate(rule))
    if abs(risk - best) > EXACT_TOL:
        problems.append(f"reported Bayes rule has risk {risk!r}, not the value {best!r}")
    return problems


def residuals(first, second, witness) -> np.ndarray:
    """Per-hypothesis l1 error of simulating ``second`` by ``witness . first``."""
    return np.abs(np.asarray(second) - np.asarray(witness) @ np.asarray(first)).sum(axis=0)


def deficiency_upper(delta: float, first, second, witness, prior=None) -> list[str]:
    """The witness is a kernel whose residual, an upper bound on delta, equals delta.

    With a prior this is the weighted variant, without one the worst case
    over hypotheses.
    """
    problems = stochastic(witness, "witness")
    if problems:
        return problems
    r = residuals(first, second, witness)
    upper = float(np.asarray(prior) @ r) if prior is not None else float(r.max())
    if abs(upper - delta) > LP_TOL:
        problems.append(f"witness residual {upper!r} differs from delta {delta!r}")
    return problems


def deficiency_lower(delta: float, first, second, priors, losses) -> list[str]:
    """Normalized value gaps never exceed delta (the randomization bound).

    For the weighted variant pass its prior alone; any prior gives a lower
    bound on the worst-case variant.
    """
    norms = np.abs(losses).max(axis=(1, 2))
    lower = max(
        float(((bayes_risks(first, p, losses) - bayes_risks(second, p, losses)) / norms).max())
        for p in priors
    )
    if lower > delta + EXACT_TOL:
        return [f"sampled value gap {lower!r} exceeds delta {delta!r}"]
    return []


def garbling(delta: float) -> list[str]:
    """A garbling of the first experiment is simulated exactly."""
    if delta > LP_TOL:
        return [f"delta {delta!r} against a garbling of the first experiment is not 0"]
    return []


def sup_at_least_weighted(sup: float, weighted: float) -> list[str]:
    if sup < weighted - EXACT_TOL:
        return [f"worst-case delta {sup!r} is below the weighted delta {weighted!r}"]
    return []


def autoencode(epsilon: float, encoder, decoder, prior) -> list[str]:
    """Epsilon is twice the reconstruction error of the emitted pair, and no
    code of k symbols recovers more than the k heaviest inputs."""
    problems = stochastic(encoder, "encoder") + stochastic(decoder, "decoder")
    if problems:
        return problems
    p = np.asarray(prior)
    again = 2.0 * (1.0 - float(p @ np.diag(np.asarray(decoder) @ np.asarray(encoder))))
    if abs(again - epsilon) > EXACT_TOL:
        problems.append(f"epsilon {epsilon!r} differs from the emitted pair's {again!r}")
    k = np.asarray(encoder).shape[0]
    floor = 2.0 * (1.0 - float(np.sort(p)[::-1][:k].sum()))
    if epsilon < floor - EXACT_TOL:
        problems.append(f"epsilon {epsilon!r} beats the {k}-code floor {floor!r}")
    return problems


def best_quality(encoder, prior) -> float:
    """Twice the error of the most-probable-preimage decoder."""
    scores = np.asarray(encoder) * np.asarray(prior)[None, :]
    return 2.0 * (1.0 - float(scores.max(axis=1).sum()))


def stack(total: float, layer_eps, layers, prior) -> list[str]:
    """Total epsilon is the composed encoder's, and within the sum over layers."""
    problems = []
    for i, layer in enumerate(layers):
        problems += stochastic(layer, f"layer {i}")
    if problems:
        return problems
    composed = np.asarray(layers[0])
    for layer in layers[1:]:
        composed = np.asarray(layer) @ composed
    again = best_quality(composed, prior)
    if abs(again - total) > EXACT_TOL:
        problems.append(f"total epsilon {total!r} differs from the composed layers' {again!r}")
    bound = float(sum(layer_eps))
    if total > bound + LP_TOL:
        problems.append(f"total epsilon {total!r} exceeds the layer sum {bound!r}")
    return problems


def ib(trace, distortion: float, encoder, centroids, latent_prior) -> list[str]:
    """A non-increasing trace, nonnegative distortion and stochastic outputs."""
    problems = []
    steps = np.diff(np.asarray(trace, dtype=float))
    if steps.size and steps.max() > EXACT_TOL:
        problems.append(f"objective trace rises by {float(steps.max())!r}")
    if distortion < -EXACT_TOL:
        problems.append(f"distortion {distortion!r} is negative")
    problems += stochastic(encoder, "encoder")
    problems += stochastic(centroids, "centroid posteriors")
    problems += stochastic(latent_prior, "latent prior")
    return problems


#: Checks per suite as (per trial, fixed) for ``finexp verify``.
VERIFY_CHECKS = {
    "randomization": (1, 0),
    "value_gap_bound": (1, 0),
    "binary_cost_sweep": (1, 0),
    "encoder_shift_bound": (1, 0),
    "quality_certificate": (2, 0),
    "stacking": (1, 0),
    "triangle": (2, 0),
    "gap_regret_identity": (1, 0),
    "ib": (3, 0),
    "hellman_raviv": (1, 0),
    "oracle_value": (1, 0),
    "oracle_generic": (1, 0),
    "oracle_autoencode": (1, 1),
}


#: Suites whose verdict depends on the seed: binary_cost_sweep's 200-point
#: sweep falls short of its 0.05 tolerance on about 6% of seeds at 100 trials.
SEED_DEPENDENT_SUITES = ("binary_cost_sweep",)


def verify(payload: dict, returncode: int, trials: int, suites=VERIFY_CHECKS) -> list[str]:
    """Each of ``suites`` ran its expected number of checks, and all of them passed."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if payload.get("all_pass") is not True:
        problems.append("all_pass is not true")
    reports = {s.get("suite"): s for s in payload.get("suites", [])}
    for name in suites:
        per_trial, fixed = VERIFY_CHECKS[name]
        report = reports.get(name)
        if report is None:
            problems.append(f"suite {name} is missing")
            continue
        if report.get("checks") != per_trial * trials + fixed:
            problems.append(f"suite {name} ran {report.get('checks')} checks, not {per_trial * trials + fixed}")
        if report.get("failures") != 0 or report.get("passed") is not True:
            problems.append(f"suite {name} failed")
    return problems


def same_bytes(first: bytes, again: bytes) -> list[str]:
    if first != again:
        return ["two identical invocations printed different bytes"]
    return []
