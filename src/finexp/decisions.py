"""Losses, the value of an experiment, regret, and information measures in bits.

The value of an experiment under a loss and prior is the risk of the best
decision rule that only sees the experiment's output.  It is computed as an
expected posterior minimum, never by materializing the concave envelope of
the loss as a function object: every use goes through a min over actions at
a concrete posterior.

Public functions take validated objects and check their spaces; the
``_``-prefixed cores take plain arrays, so callers that have already
validated their inputs (the verify suites) skip the object layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    _bayes_inverse_matrix,
    _check_space,
    _deterministic,
    _float_array,
    _freeze,
)

_LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class LossMatrix:
    """Bounded loss over hypotheses (rows) and actions (columns)."""

    theta: FiniteSpace
    actions: FiniteSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        v = _float_array(self.values, (self.theta.size, self.actions.size), "loss")
        if not np.all(np.isfinite(v)):
            raise ValueError("loss entries must be finite")
        # regrets and feature gaps are differences of losses, so their range must be finite too
        if not math.isfinite(float(v.max()) - float(v.min())):
            raise ValueError("loss range max - min overflows to infinity; rescale the loss")
        _freeze(self, "values", v)


def value(loss: LossMatrix, prior: Distribution, experiment: MarkovKernel) -> float:
    """Risk of the best decision rule that factors through the experiment.

    Equal to the marginal-weighted average of the posterior minimum expected
    loss; computed via the joint so outputs of zero marginal mass drop out.
    """
    _check_value_spaces(loss, prior, experiment)
    return float(_value(experiment.matrix, prior.mass, loss.values))


def _check_value_spaces(loss: LossMatrix, prior: Distribution, experiment: MarkovKernel, caller: str = "value") -> None:
    _check_space(f"{caller}: experiment input", loss.theta, experiment.source)
    _check_space(f"{caller}: prior", loss.theta, prior.space)


def _value(matrix: np.ndarray, mass: np.ndarray, loss_values: np.ndarray) -> np.ndarray:
    """Array core of ``value``: experiment matrix, prior masses, loss values.

    Each argument may be a stack: matrices shaped [..., x, theta], masses
    [..., theta] and losses [..., theta, action].  The stacks broadcast and
    the result holds one value per problem.
    """
    jm = matrix * mass[..., None, :]
    return (jm @ loss_values).min(axis=-1).sum(axis=-1)


def bayes_decision_rule(loss: LossMatrix, prior: Distribution, experiment: MarkovKernel) -> MarkovKernel:
    """Deterministic rule picking the best action at each posterior."""
    _check_value_spaces(loss, prior, experiment, "bayes_decision_rule")
    acts = np.argmin(_bayes_inverse_matrix(experiment.matrix, prior.mass)[0].T @ loss.values, axis=1)
    return MarkovKernel(experiment.target, loss.actions, _deterministic(acts, loss.actions.size))


def regret(loss: LossMatrix, p: Distribution, q: Distribution) -> float:
    """Excess loss from acting optimally for q when the truth follows p.

    Coincides with the Bregman divergence generated by the concave envelope
    of the loss; always nonnegative up to rounding.
    """
    _check_space("regret", loss.theta, p.space)
    _check_space("regret", loss.theta, q.space)
    # the Bayes act for q; ties go to the lowest index
    a = int(np.argmin(q.mass @ loss.values))
    return float(p.mass @ loss.values[:, a] - (p.mass @ loss.values).min())


def feature_gap(
    loss: LossMatrix,
    prior: Distribution,
    experiment: MarkovKernel,
    encoder: MarkovKernel,
) -> float:
    """Value lost by deciding from encoded data instead of raw data (>= 0)."""
    _check_space("feature_gap: encoder input", experiment.target, encoder.source)
    _check_value_spaces(loss, prior, experiment, "feature_gap")
    gap = float(_feature_gap(encoder.matrix, experiment.matrix, prior.mass, loss.values))
    # the coarser value is never the smaller one, so a gap below 0 is rounding; a NaN passes through
    return 0.0 if gap <= 0 else gap


def _feature_gap(
    encoder_matrix: np.ndarray, matrix: np.ndarray, mass: np.ndarray, loss_values: np.ndarray
) -> np.ndarray:
    """Array core of ``feature_gap``: encoder matrix, then as ``_value``, stacks included."""
    return _value(encoder_matrix @ matrix, mass, loss_values) - _value(matrix, mass, loss_values)


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise x * ln(y) for y >= 0, with 0 * ln(y) = 0 even where y is 0.

    The log is numpy's, taken on the support only.  Like every numpy ufunc
    its last bit may follow the CPU's SIMD targets, so printed results hold
    byte for byte per machine and to 1e-12 across machines.  The result has
    a ufunc's memory layout (that of ``x * y``), which fixes the order in
    which a later ``.sum()`` adds the terms.
    """
    out = np.zeros_like(x * y)
    x, y = np.broadcast_arrays(x, y)
    support = x != 0
    with np.errstate(divide="ignore"):
        out[support] = x[support] * np.log(y[support])
    return out


def _joint(prior: Distribution, encoder: MarkovKernel, caller: str) -> tuple[np.ndarray, float]:
    """The joint [output, input] of prior and encoder, and -H(input | output) in nats under it."""
    _check_space(caller, encoder.source, prior.space)
    jm = encoder.matrix * prior.mass[None, :]
    pz = jm.sum(axis=1)
    return jm, _xlogy(jm, jm).sum() - _xlogy(jm, pz[:, None]).sum()


def conditional_entropy(prior: Distribution, encoder: MarkovKernel) -> float:
    """H(input | output) in bits under the joint of prior and encoder."""
    _, nats = _joint(prior, encoder, "conditional_entropy")
    return float(-nats / _LN2)


def mutual_information(prior: Distribution, encoder: MarkovKernel) -> float:
    """I(input ; output) in bits under the joint of prior and encoder."""
    jm, nats = _joint(prior, encoder, "mutual_information")
    # ln jm - ln pz - ln prior term by term: the product pz * prior may
    # underflow to 0 where jm does not
    nats -= _xlogy(jm, prior.mass[None, :]).sum()
    # a KL divergence, so a sum below 0 is rounding; a NaN passes through
    bits = float(nats / _LN2)
    return 0.0 if bits <= 0 else bits
