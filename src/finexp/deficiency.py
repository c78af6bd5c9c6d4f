"""Deficiency distances between experiments, solved as exact linear programs.

How far one experiment is from simulating another: the prior-weighted
directed deficiency is the smallest average l1 error achievable by
post-processing, the directed deficiency takes the worst case over
hypotheses (equivalently, the supremum over priors), and the weighted
deficiency symmetrizes.  Every solve returns the optimizing post-processing
kernel as a feasibility witness together with a residual certificate.

Both variants solve one equality-form LP.  With the witness V (columns are
output distributions per observed symbol) and the residual split into its
positive and negative parts r+ and r-, the weighted program is

    min  sum_{y,theta} prior(theta) * (r+ + r-)[y,theta]
    s.t. V T + r+ - r- = U,  columns of V sum to 1,  V, r+, r- >= 0

At an optimum r+ and r- never overlap where the prior is positive, so
their sum is the absolute residual.  The worst-case program keeps the same
equality rows, adds one variable t, and minimizes t subject to
sum_y (r+ + r-)[y,theta] <= t for every hypothesis.  Problem sizes here are
desk scale, so the matrices are dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Distribution, MarkovKernel, _mismatch


class SolverError(RuntimeError):
    """The LP solver failed on a program that is feasible by construction."""


@dataclass(frozen=True, eq=False)
class DeficiencyResult:
    """Optimal value, the kernel attaining it, and a residual certificate."""

    delta: float
    witness: MarkovKernel
    objective_gap: float


def weighted_objective(
    first: MarkovKernel, second: MarkovKernel, prior: Distribution, v: MarkovKernel
) -> float:
    """Prior-averaged l1 residual of approximating ``second`` by ``v . first``."""
    resid = second.matrix - v.matrix @ first.matrix
    return float(prior.mass @ np.abs(resid).sum(axis=0))


def worst_case_objective(first: MarkovKernel, second: MarkovKernel, v: MarkovKernel) -> float:
    """Largest per-hypothesis l1 residual of approximating ``second`` by ``v . first``."""
    resid = second.matrix - v.matrix @ first.matrix
    return float(np.abs(resid).sum(axis=0).max())


def _check_pair(first: MarkovKernel, second: MarkovKernel) -> None:
    if first.source != second.source:
        raise _mismatch("deficiency: experiments must share hypotheses", first.source, second.source)


def _solve(c, a_eq, b_eq, a_ub=None, b_ub=None):
    # imported here so that only LP solves pay for loading scipy
    from scipy.optimize import linprog

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        # the feasible set is a nonempty polytope by construction, so any
        # failure is a solver defect rather than a modeling outcome
        raise SolverError(f"internal LP failure (status {res.status}): {res.message}")
    return res


def _witness_kernel(x: np.ndarray, first: MarkovKernel, second: MarkovKernel) -> MarkovKernel:
    """The post-processing V read from the leading variables of an LP solution."""
    nx, ny = first.target.size, second.target.size
    v = np.clip(x[: ny * nx].reshape(ny, nx), 0.0, None)
    sums = v.sum(axis=0)
    dead = sums <= 0
    if np.any(dead):
        v[:, dead] = 1.0 / ny
        sums = v.sum(axis=0)
    return MarkovKernel(first.target, second.target, v / sums)


def _equality_rows(first: MarkovKernel, second: MarkovKernel, extra: int):
    """Rows V T + r+ - r- = U and the column sums of V, in (v, r+, r-, extra) order.

    Row ``y*nt + theta`` is the residual entry (y, theta); variable ``y*nx + x``
    is V[y, x] and ``y*nt + theta`` indexes each of r+ and r-.
    """
    nx, ny, nt = first.target.size, second.target.size, first.source.size
    nv, nr = ny * nx, ny * nt
    a = np.zeros((nr + nx, nv + 2 * nr + extra))
    for y in range(ny):
        a[y * nt:(y + 1) * nt, y * nx:(y + 1) * nx] = first.matrix.T
    np.fill_diagonal(a[:nr, nv:], 1.0)
    np.fill_diagonal(a[:nr, nv + nr:], -1.0)
    a[nr:, :nv] = np.tile(np.eye(nx), ny)
    b = np.concatenate([second.matrix.reshape(-1), np.ones(nx)])
    return a, b


def weighted_directed_deficiency(
    first: MarkovKernel, second: MarkovKernel, prior: Distribution
) -> DeficiencyResult:
    """Smallest prior-averaged l1 error in simulating ``second`` from ``first``.

    Hypotheses carrying zero prior mass simply drop out of the objective.
    """
    _check_pair(first, second)
    if prior.space != first.source:
        raise _mismatch("deficiency: prior", first.source, prior.space)
    nv = second.target.size * first.target.size
    a_eq, b_eq = _equality_rows(first, second, 0)
    c = np.concatenate([np.zeros(nv), np.tile(prior.mass, 2 * second.target.size)])
    res = _solve(c, a_eq, b_eq)
    witness = _witness_kernel(res.x, first, second)
    delta = max(0.0, float(res.fun))
    gap = abs(weighted_objective(first, second, prior, witness) - delta)
    return DeficiencyResult(delta=delta, witness=witness, objective_gap=gap)


def directed_deficiency(first: MarkovKernel, second: MarkovKernel) -> DeficiencyResult:
    """Worst case over hypotheses (equivalently priors) of the simulation error."""
    _check_pair(first, second)
    ny, nt = second.target.size, first.source.size
    nv = ny * first.target.size
    a_eq, b_eq = _equality_rows(first, second, 1)
    # per-hypothesis residual sums bounded by the single variable t
    a_ub = np.hstack([np.zeros((nt, nv)), np.tile(np.eye(nt), 2 * ny), -np.ones((nt, 1))])
    c = np.zeros(a_eq.shape[1])
    c[-1] = 1.0
    res = _solve(c, a_eq, b_eq, a_ub, np.zeros(nt))
    witness = _witness_kernel(res.x, first, second)
    delta = max(0.0, float(res.fun))
    gap = abs(worst_case_objective(first, second, witness) - delta)
    return DeficiencyResult(delta=delta, witness=witness, objective_gap=gap)


def weighted_deficiency(first: MarkovKernel, second: MarkovKernel, prior: Distribution) -> float:
    """Symmetrized weighted deficiency: max of the two directed solves."""
    d12 = weighted_directed_deficiency(first, second, prior).delta
    d21 = weighted_directed_deficiency(second, first, prior).delta
    return max(d12, d21)
