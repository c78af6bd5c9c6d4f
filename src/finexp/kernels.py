"""Finite spaces, probability vectors and column-stochastic Markov kernels.

Everything is a plain numpy array under the hood: a distribution over a
space of size n is a nonnegative length-n vector summing to one, and a
kernel from a space of size m to a space of size k is a k-by-m matrix
whose columns are distributions (column x is the output distribution given
input x).  All values are immutable after construction and all operations
are pure functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

# Column sums may deviate from 1 by at most this much before construction
# is rejected; smaller deviations are divided out.
STOCHASTIC_ATOL = 1e-9
# Deviations at the level of accumulated rounding are left untouched so that
# construction is idempotent (load -> save -> load reproduces the same bits).
_RENORM_FLOOR = 1e-13


class SpaceMismatchError(ValueError):
    """An operation was handed objects over incompatible spaces."""


@dataclass(frozen=True)
class FiniteSpace:
    """Ordered collection of distinct labels; the index/label map is stable."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(lab) for lab in self.labels)
        if not labels:
            raise ValueError("a finite space needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels are not distinct: {labels}")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def of_size(cls, n: int, prefix: str = "x") -> "FiniteSpace":
        return cls(tuple(f"{prefix}{i}" for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} not in space {self.labels}") from None


#: Canonical one-point space, the target of every uninformative kernel.
POINT = FiniteSpace(("*",))


def _mismatch(context: str, expected: FiniteSpace, got: FiniteSpace) -> SpaceMismatchError:
    return SpaceMismatchError(f"{context}: expected space {expected.labels}, got {got.labels}")


def _normalize_columns(matrix: np.ndarray, what: str) -> np.ndarray:
    """Validate nonnegativity and column sums, dividing out tiny drift."""
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{what} has non-finite entries")
    if np.any(matrix < 0):
        raise ValueError(f"{what} has negative entries")
    sums = matrix.sum(axis=0)
    off = np.abs(sums - 1.0)
    if np.any(off > STOCHASTIC_ATOL):
        bad = int(np.argmax(off))
        raise ValueError(
            f"{what}: column {bad} sums to {sums[bad]!r}, "
            f"outside tolerance {STOCHASTIC_ATOL} of 1"
        )
    fix = off > _RENORM_FLOOR
    if np.any(fix):
        matrix[:, fix] /= sums[fix]
    return matrix


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over a finite space."""

    space: FiniteSpace
    mass: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.mass, dtype=float)
        if m.shape != (self.space.size,):
            raise ValueError(
                f"distribution over {self.space.labels} needs shape "
                f"({self.space.size},), got {m.shape}"
            )
        m = _normalize_columns(m[:, None], "distribution")[:, 0]
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)


def uniform(space: FiniteSpace) -> Distribution:
    return Distribution(space, np.full(space.size, 1.0 / space.size))


def point_mass(space: FiniteSpace, label: str) -> Distribution:
    m = np.zeros(space.size)
    m[space.index(label)] = 1.0
    return Distribution(space, m)


@dataclass(frozen=True, eq=False)
class MarkovKernel:
    """Column-stochastic matrix: column x holds the output distribution for input x."""

    source: FiniteSpace
    target: FiniteSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        expected = (self.target.size, self.source.size)
        if m.shape != expected:
            raise ValueError(
                f"kernel {self.source.labels} -> {self.target.labels} needs shape "
                f"{expected}, got {m.shape}"
            )
        m = _normalize_columns(m, "kernel")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def column(self, x: int) -> Distribution:
        return Distribution(self.target, self.matrix[:, x])


def identity(space: FiniteSpace) -> MarkovKernel:
    return MarkovKernel(space, space, np.eye(space.size))


def uninformative(space: FiniteSpace) -> MarkovKernel:
    return MarkovKernel(space, POINT, np.ones((1, space.size)))


def deterministic(
    source: FiniteSpace,
    target: FiniteSpace,
    f: Mapping[str, str] | Callable[[str], str],
) -> MarkovKernel:
    """Kernel of a function: each column is a point mass on the image label."""
    m = np.zeros((target.size, source.size))
    for j, label in enumerate(source.labels):
        if isinstance(f, Mapping):
            try:
                image = f[label]
            except KeyError:
                raise ValueError(f"map has no image for label {label!r}") from None
        else:
            image = f(label)
        m[target.index(image), j] = 1.0
    return MarkovKernel(source, target, m)


def compose(outer: MarkovKernel, inner: MarkovKernel) -> MarkovKernel:
    """Kernel composition (outer after inner) by matrix multiplication."""
    if outer.source != inner.target:
        raise _mismatch("compose: outer input must match inner output", inner.target, outer.source)
    return MarkovKernel(inner.source, outer.target, outer.matrix @ inner.matrix)


def pushforward(kernel: MarkovKernel, dist: Distribution) -> Distribution:
    """Image of a distribution under a kernel."""
    if dist.space != kernel.source:
        raise _mismatch("pushforward", kernel.source, dist.space)
    return Distribution(kernel.target, kernel.matrix @ dist.mass)


def _bayes_inverse_matrix(matrix: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Posterior matrix of a column-stochastic ``matrix`` under input masses ``mass``.

    Column x is row x of the joint divided by its marginal; a column whose
    marginal is 0 is uniform and its index is returned in the tuple.
    """
    jm = matrix * mass[None, :]
    marginal = jm.sum(axis=1)
    filled = ~(marginal > 0)
    post = np.full((mass.size, marginal.size), 1.0 / mass.size)
    np.divide(jm.T, marginal, out=post, where=~filled)
    return post, tuple(np.flatnonzero(filled).tolist())


def bayes_inverse(kernel: MarkovKernel, prior: Distribution) -> MarkovKernel:
    """Reverse a kernel through a prior.

    Column x of the result is the conditional distribution over inputs given
    output x.  Outputs with zero marginal mass get a uniform column; anything
    downstream weights them by zero, so the convention is observationally
    neutral.
    """
    if prior.space != kernel.source:
        raise _mismatch("bayes_inverse", kernel.source, prior.space)
    post, _ = _bayes_inverse_matrix(kernel.matrix, prior.mass)
    return MarkovKernel(kernel.target, kernel.source, post)


def variational_divergence(p: Distribution, q: Distribution) -> float:
    """l1 distance between two distributions on the same space, in [0, 2]."""
    if p.space != q.space:
        raise _mismatch("variational_divergence", p.space, q.space)
    return float(np.abs(p.mass - q.mass).sum())
