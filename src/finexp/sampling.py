"""Seeded random instances: distributions, kernels and losses for the harness."""

from __future__ import annotations

import numpy as np

from .decisions import LossMatrix
from .kernels import Distribution, FiniteSpace, MarkovKernel


def random_distribution(
    rng: np.random.Generator, space: FiniteSpace, floor: float = 0.0
) -> Distribution:
    """Dirichlet draw; a positive floor mixes in the uniform to bound masses below."""
    m = rng.dirichlet(np.ones(space.size))
    if floor > 0:
        m = (1.0 - floor * space.size) * m + floor
    return Distribution(space, m)


def _random_columns(rng: np.random.Generator, n_source: int, n_target: int) -> np.ndarray:
    """n_target-by-n_source matrix whose columns are uniform Dirichlet draws."""
    return rng.dirichlet(np.ones(n_target), size=n_source).T


def random_kernel(rng: np.random.Generator, source: FiniteSpace, target: FiniteSpace) -> MarkovKernel:
    return MarkovKernel(source, target, _random_columns(rng, source.size, target.size))


def random_deterministic_kernel(
    rng: np.random.Generator, source: FiniteSpace, target: FiniteSpace
) -> MarkovKernel:
    m = np.zeros((target.size, source.size))
    m[rng.integers(0, target.size, size=source.size), np.arange(source.size)] = 1.0
    return MarkovKernel(source, target, m)


def random_loss(
    rng: np.random.Generator,
    theta: FiniteSpace,
    actions: FiniteSpace,
    low: float = -1.0,
    high: float = 1.0,
) -> LossMatrix:
    return LossMatrix(theta, actions, rng.uniform(low, high, size=(theta.size, actions.size)))
