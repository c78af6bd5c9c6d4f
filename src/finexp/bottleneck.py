"""Supervised feature learning by alternating minimization.

The objective splits the value lost to encoding into a sum of regrets
between posteriors and per-code centroid posteriors, plus an optional
mutual-information penalty scaled by beta.  Each coordinate update has a
closed-form minimizer: centroids move to posterior means, the reference
code prior moves to the encoder's marginal, and encoder columns follow a
Gibbs rule (a hard argmin assignment in the beta = 0 limit).  Every update
weakly decreases the objective, so traces are non-increasing and the
beta = 0 dynamics terminate at a finite fixed point.

Each iteration builds one regret table, for the centroids fixed at its
start, and shares it between the encoder update and the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decisions import LossMatrix
from .kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    _bayes_inverse_matrix,
    _check_space,
    _deterministic,
    bayes_inverse,
    pushforward,
)

_CONVERGENCE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class IBState:
    """Encoder, per-code centroid posteriors, reference code prior and trace."""

    encoder: MarkovKernel
    centroid_posteriors: MarkovKernel
    latent_prior: Distribution
    beta: float
    objective_trace: tuple[float, ...] = ()


@dataclass(frozen=True, eq=False)
class _Problem:
    """The arrays every update reads, computed once per validated problem."""

    loss: np.ndarray  # [theta, a]
    posts: np.ndarray  # posterior of each input, [theta, x]
    px: np.ndarray  # input marginal, [x]
    exp_post: np.ndarray  # posterior expected loss of each action, [x, a]
    best: np.ndarray  # Bayes loss at each posterior, [x]


def _problem(loss: LossMatrix, prior: Distribution, experiment: MarkovKernel) -> _Problem:
    _check_space("bottleneck: loss hypotheses", experiment.source, loss.theta)
    _check_space("bottleneck: prior", experiment.source, prior.space)
    posts = bayes_inverse(experiment, prior).matrix
    exp_post = posts.T @ loss.values
    px = pushforward(experiment, prior).mass
    return _Problem(loss.values, posts, px, exp_post, exp_post.min(axis=1))


def _regret_table(problem: _Problem, centroids: np.ndarray) -> np.ndarray:
    """Regret of acting for centroid z when the truth follows posterior x; shape [x, z]."""
    acts = np.argmin(centroids.T @ problem.loss, axis=1)
    return problem.exp_post[:, acts] - problem.best[:, None]


def _objective(
    problem: _Problem, enc: np.ndarray, table: np.ndarray, latent_prior: np.ndarray, beta: float
) -> float:
    """Regret term plus beta times the px-weighted KL(encoder column || latent prior).

    ``table`` is the regret table of the centroids.  The KL is in nats,
    which keeps the Gibbs encoder update the exact minimizer of the
    penalized column subproblem.  It is +inf when an input of positive
    mass puts mass on a code the reference prior gives zero.
    """
    distortion = float(np.einsum("x,zx,xz->", problem.px, enc, table))
    if beta == 0:
        return distortion
    seen = problem.px > 0
    cols = enc[:, seen]
    used = cols > 0
    if np.any(used & (latent_prior[:, None] <= 0)):
        return math.inf
    ratio = np.divide(cols, latent_prior[:, None], out=np.ones_like(cols), where=used)
    kl = (cols * np.log(ratio)).sum(axis=0)
    # the builtin sum adds left to right in input order; numpy's pairwise
    # sum would move the last bit of objective traces that earlier versions printed
    return distortion + beta * float(sum(problem.px[seen] * kl, 0.0))


def _state_objective(
    state: IBState, loss: LossMatrix, prior: Distribution, experiment: MarkovKernel, beta: float
) -> float:
    _check_space("bottleneck: state encoder input", experiment.target, state.encoder.source)
    _check_space("bottleneck: state centroid posteriors", experiment.source, state.centroid_posteriors.target)
    problem = _problem(loss, prior, experiment)
    table = _regret_table(problem, state.centroid_posteriors.matrix)
    return _objective(problem, state.encoder.matrix, table, state.latent_prior.mass, beta)


def ib_distortion(state: IBState, loss: LossMatrix, prior: Distribution, experiment: MarkovKernel) -> float:
    """The regret part of the objective (the value lost to encoding at a fixed point)."""
    return _state_objective(state, loss, prior, experiment, 0.0)


def ib_objective(state: IBState, loss: LossMatrix, prior: Distribution, experiment: MarkovKernel) -> float:
    """Regret term plus beta times the KL penalty; +inf on an infeasible reference prior."""
    return _state_objective(state, loss, prior, experiment, state.beta)


def centroid_step(problem: _Problem, enc: np.ndarray, beta: float) -> np.ndarray:
    """Posterior-mean centroid per code; at beta = 0, dead codes reseed to the worst-served input.

    A code with zero marginal mass contributes nothing to the objective, so
    its centroid is free.  At beta = 0, parking it on the posterior of the
    input farthest (in regret) from the live centroids gives the next
    assignment step an escape from poor local optima.  At beta > 0 a dead
    code has reference mass 0, so its Gibbs weight is 0 whatever its
    centroid: it never revives, and a reseed would build a regret table
    for nothing.
    """
    enc_inv, dead = _bayes_inverse_matrix(enc, problem.px)
    centroids = problem.posts @ enc_inv
    if dead and beta == 0:
        live = [z for z in range(centroids.shape[1]) if z not in dead]
        table = _regret_table(problem, centroids[:, live])
        score = problem.px * table.min(axis=1)
        for z in dead:
            worst = int(np.argmax(score))
            centroids[:, z] = problem.posts[:, worst]
            score[worst] = -1.0
    return centroids


def latent_prior_step(problem: _Problem, enc: np.ndarray) -> np.ndarray:
    """The reference code prior: the encoder's marginal."""
    return enc @ problem.px


def encoder_step(table: np.ndarray, latent_prior: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs encoder columns for a regret table, or the argmin assignment at beta = 0."""
    if beta == 0:
        return _deterministic(np.argmin(table, axis=1), table.shape[1])
    # shifting each row to its least regret first keeps a subnormal beta
    # from turning every regret into inf; larger regrets may still overflow
    # to inf, which is weight zero
    table = table - table.min(axis=1, keepdims=True)
    with np.errstate(divide="ignore", over="ignore"):
        logw = np.log(latent_prior)[None, :] - table / beta
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    return (w / w.sum(axis=1, keepdims=True)).T


def _seed_assignment(problem: _Problem, k: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-point seeding over posterior columns under regret.

    Greedily picks code representatives until every supported input sits at
    zero regret from some seed or k seeds exist, then assigns each input to
    its nearest seed.  With k at least the number of distinct posteriors
    this starts the beta = 0 dynamics at zero distortion.
    """
    support = np.flatnonzero(problem.px > 0)
    seed = int(rng.choice(support))
    nearest = np.full(problem.px.size, np.inf)
    assign = np.zeros(nearest.size, dtype=int)
    for z in range(k):
        column = _regret_table(problem, problem.posts[:, [seed]])[:, 0]
        # strictly closer only, so ties stay with the earliest seed
        assign[column < nearest] = z
        nearest = np.minimum(nearest, column)
        if nearest[support].max() <= 1e-15:
            break
        seed = int(support[np.argmax(nearest[support])])
    return assign


def _largest_rise(trace) -> float:
    """The largest step up between consecutive values of an objective trace, or 0.0 if it never rises.

    NaN anywhere gives NaN, and so does a step from inf to inf, so a
    comparison with a tolerance fails on both; no numpy warning is raised.
    """
    with np.errstate(invalid="ignore"):
        return float(np.diff(np.asarray(trace, dtype=float)).max(initial=0.0))


def ib_learn(
    loss: LossMatrix,
    prior: Distribution,
    experiment: MarkovKernel,
    latent_size: int,
    beta: float = 0.0,
    max_iters: int = 200,
    seed: int = 0,
) -> IBState:
    """Alternate centroid, reference-prior and encoder updates until the objective stalls.

    Inputs are validated here, once; the loop runs on plain arrays, and the
    result is wrapped into kernels and a distribution on return.
    """
    if latent_size < 1:
        raise ValueError("latent_size must be at least 1")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    beta = float(beta)
    rng = np.random.default_rng(seed)
    problem = _problem(loss, prior, experiment)

    enc = _deterministic(_seed_assignment(problem, latent_size, rng), latent_size)
    trace = []
    for _ in range(max_iters):
        centroids = centroid_step(problem, enc, beta)
        latent_prior = latent_prior_step(problem, enc)
        table = _regret_table(problem, centroids)
        if not trace:
            trace.append(_objective(problem, enc, table, latent_prior, beta))
        enc = encoder_step(table, latent_prior, beta)
        trace.append(_objective(problem, enc, table, latent_prior, beta))
        # "not >=" also stops on a NaN objective; the kernel check on return
        # then rejects the encoder
        if not trace[-2] - trace[-1] >= _CONVERGENCE_TOL:
            break
    latent = FiniteSpace.of_size(latent_size, prefix="z")
    return IBState(
        encoder=MarkovKernel(experiment.target, latent, enc),
        centroid_posteriors=MarkovKernel(latent, experiment.source, centroids),
        latent_prior=Distribution(latent, latent_prior),
        beta=beta,
        objective_trace=tuple(trace),
    )
