"""Finite spaces, probability vectors and column-stochastic Markov kernels.

Everything is a plain numpy array under the hood: a distribution over a
space of size n is a nonnegative length-n vector summing to one, and a
kernel from a space of size m to a space of size k is a k-by-m matrix
whose columns are distributions (column x is the output distribution given
input x).  All values are immutable after construction and all operations
are pure functions, so everything here is safe to share across threads.
Each value object (``Distribution``, ``MarkovKernel`` and
``decisions.LossMatrix``) stores a float copy of its input made by
``_float_array``, and ``_freeze`` is the one place such an array becomes
read-only, so an array passed in is never changed or frozen.

Objects combine only over one shared space.  The public functions of the
package check that through ``_check_space``, its only raiser of
``SpaceMismatchError``, whose message reads
``<context>: expected space (...), got (...)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Column sums may deviate from 1 by at most this much before construction
# is rejected; smaller deviations are divided out.
STOCHASTIC_ATOL = 1e-9
# Deviations at the level of accumulated rounding are left untouched so that
# construction is idempotent: rebuilding a kernel from another kernel's
# matrix reproduces the same bits.
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


def _check_space(context: str, expected: FiniteSpace, got: FiniteSpace) -> None:
    """Raise ``SpaceMismatchError`` naming ``context`` and both spaces unless ``got`` equals ``expected``."""
    if got != expected:
        raise SpaceMismatchError(f"{context}: expected space {expected.labels}, got {got.labels}")


def _deterministic(index: np.ndarray, size: int) -> np.ndarray:
    """The 0/1 matrix with ``size`` rows whose column x puts all its mass on row ``index[x]``."""
    return (np.arange(size)[:, None] == index).astype(float)


def _float_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A float copy of ``values``, which must have ``shape``."""
    array = np.array(values, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{what} needs shape {shape}, got {array.shape}")
    return array


def _freeze(obj, name: str, array: np.ndarray) -> None:
    """Write-protect ``array`` and store it as field ``name`` of the frozen dataclass ``obj``."""
    array.setflags(write=False)
    object.__setattr__(obj, name, array)


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
        m = _float_array(self.mass, (self.space.size,), f"distribution over {self.space.labels}")
        # normalizes m in place through the column view, so m itself is frozen, not a view of it
        _normalize_columns(m[:, None], "distribution")
        _freeze(self, "mass", m)


def uniform(space: FiniteSpace) -> Distribution:
    return Distribution(space, np.full(space.size, 1.0 / space.size))


@dataclass(frozen=True, eq=False)
class MarkovKernel:
    """Column-stochastic matrix: column x holds the output distribution for input x."""

    source: FiniteSpace
    target: FiniteSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        what = f"kernel {self.source.labels} -> {self.target.labels}"
        m = _float_array(self.matrix, (self.target.size, self.source.size), what)
        _freeze(self, "matrix", _normalize_columns(m, "kernel"))

    def column(self, x: int) -> Distribution:
        return Distribution(self.target, self.matrix[:, x])


def compose(outer: MarkovKernel, inner: MarkovKernel) -> MarkovKernel:
    """Kernel composition (outer after inner) by matrix multiplication."""
    _check_space("compose: outer input must match inner output", inner.target, outer.source)
    return MarkovKernel(inner.source, outer.target, outer.matrix @ inner.matrix)


def pushforward(kernel: MarkovKernel, dist: Distribution) -> Distribution:
    """Image of a distribution under a kernel."""
    _check_space("pushforward", kernel.source, dist.space)
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
    _check_space("bayes_inverse", kernel.source, prior.space)
    post, _ = _bayes_inverse_matrix(kernel.matrix, prior.mass)
    return MarkovKernel(kernel.target, kernel.source, post)
