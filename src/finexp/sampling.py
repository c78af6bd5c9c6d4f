"""Seeded random instances: distributions, kernels and losses for the harness."""

from __future__ import annotations

import numpy as np

from .decisions import LossMatrix
from .kernels import Distribution, FiniteSpace, MarkovKernel


def random_distribution(rng: np.random.Generator, space: FiniteSpace) -> Distribution:
    """Uniform Dirichlet draw."""
    return Distribution(space, rng.dirichlet(np.ones(space.size)))


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


def random_loss(rng: np.random.Generator, theta: FiniteSpace, actions: FiniteSpace) -> LossMatrix:
    """Losses drawn uniformly from [-1, 1]."""
    return LossMatrix(theta, actions, rng.uniform(-1.0, 1.0, size=(theta.size, actions.size)))
