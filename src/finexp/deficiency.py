"""Deficiency distances between experiments, solved as exact linear programs.

How far one experiment is from simulating another: the prior-weighted
directed deficiency is the smallest average l1 error achievable by
post-processing, the directed deficiency takes the worst case over
hypotheses (equivalently, the supremum over priors), and the symmetric
deficiency is the larger of the two directions.  Both public functions
check spaces once, through ``kernels._check_space`` (the experiments share
their hypotheses, and the weighted variant's prior is over them), and
return a ``DeficiencyResult``: delta, the optimizing post-processing
kernel as a feasibility witness, and the gap between its residual and
delta.  The ``_``-prefixed core takes and returns arrays.

Both variants are built from one block over the witness V (columns are
output distributions per observed symbol), in two parts: the entries
(V T)[y, theta] and the column sums of V.  V T and U are both
column-stochastic, so every column of the residual U - V T sums to zero and
its l1 norm is twice the sum of its positive part:

    sum_y |U - V T|[y,theta] = 2 * sum_y max(0, U - V T)[y,theta]

Each program therefore bounds the residual from one side only, with
r >= U - V T and r >= 0 (the half-l1 form), and needs no negative part.

The worst-case variant solves this primal and reads V from its solution:

    min  2 t
    s.t. U - V T <= r,  sum_y r[y,theta] <= t,  columns of V sum to 1,
         V, r >= 0

The weighted variant solves the dual of its half-l1 primal
(min 2 sum_{y,theta} prior(theta) r[y,theta] under the same rows):

    max  sum_{y,theta} z[y,theta] U[y,theta] + sum_x mu[x]
    s.t. sum_theta z[y,theta] T[x,theta] + mu[x] <= 0,
         0 <= z[y,theta] <= 2 prior(theta),  mu free

It has no residual variables and one row per entry of V, and V is read
back as the multiplier of those rows.  With 32 labels on every space that
is 1024 x 1056 against 1056 x 2048 for the primal, and HiGHS solves it in
about half the time.  The worst-case dual would add a worst-case prior as
variables; its simplex solves took about twice as long as the primal
above, so that variant stays primal.

The two variants use different HiGHS methods.  The worst-case primal is
solved by interior point, with the crossover scipy runs by default, so its
solution is still a vertex; at 32 labels it solves about twice as fast as
by simplex.  At n <= 16 it is slower (8.4 against 4.8 ms at n = 8 on a
2-core machine), but it must stay there for robustness: by simplex this
primal stalls on pairs that factor exactly.  A garbled Dirichlet(0.3)
pair at n = 16 ran over 60 s by simplex and under 1 s by interior point;
over 24 self and garbled pairs per size, simplex hit a 3 s limit 0 times
at n <= 8, once at n = 12, 5 times at n = 16 and 6 times at n = 24.  So
the method is not switched by size.  The weighted batches stay on
simplex, which never stalled on those pairs (slowest 1.05 s, at n = 32):
they are thousands of small solves in the verify suites, and interior
point raised small solves to 4.6 ms.

Every LP takes one path from arrays to result.  Its constraint matrices
are assembled as (rows, cols, data, shape) of their nonzero entries:
``_block``'s two parts, placed as they are for the worst-case primal and
transposed for the weighted dual.  ``_solve``, the one place that imports
scipy, makes them sparse arrays and calls ``linprog``.  ``_result`` turns
delta and the raw V into the witness and the objective gap of either
variant.

At desk scale scipy's per-call overhead is most of a solve, so weighted
problems are solved in batches: their duals share no variable, and
consecutive problems are stacked as the blocks of one block-diagonal LP
while it has at most ``_BATCH_ROWS`` rows.  A problem's dual has one row
per entry of V, ny * nx, and with sparse matrices rows are what HiGHS's
work and memory follow.  Each block's row and column offsets are recorded
once, as the LP is assembled, and its delta and V are read back at them.
A single weighted solve is a batch of one, and so is a problem with 32
labels on every space (1024 rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Distribution, MarkovKernel, _check_space


class SolverError(RuntimeError):
    """The LP solver failed on a program that is feasible by construction."""


@dataclass(frozen=True, eq=False)
class DeficiencyResult:
    """Optimal value, the kernel attaining it, and a residual certificate."""

    delta: float
    witness: MarkovKernel
    objective_gap: float


#: The ``linprog`` settings of each variant; the module docstring says why
#: the methods differ.  HiGHS lets a bound slip by its primal feasibility
#: tolerance, 1e-7 by default; a prior mass below that would let the
#: weighted dual's z overshoot its bound and inflate delta.
_METHODS = {
    "sup": {"method": "highs-ipm"},
    "weighted": {"method": "highs", "options": {"primal_feasibility_tolerance": 1e-9}},
}


def _solve(variant, c, a_ub, b_ub, a_eq=None, b_eq=None, bounds=(0, None)):
    """Solve one LP; each constraint matrix is given as (rows, cols, data, shape) of its nonzero entries."""
    # imported here so that only LP solves pay for loading scipy; scipy.sparse
    # first, since that order loads both about 30 ms sooner than the reverse
    from scipy.sparse import coo_array
    from scipy.optimize import linprog

    a_ub, a_eq = (None if a is None else coo_array((a[2], (a[0], a[1])), shape=a[3]) for a in (a_ub, a_eq))
    settings = _METHODS[variant]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, **settings)
    if res.status != 0:
        # the feasible set is a nonempty polytope by construction, so any
        # failure is a solver defect rather than a modeling outcome
        rows = a_ub.shape[0] + (0 if a_eq is None else a_eq.shape[0])
        raise SolverError(
            f"internal LP failure (status {res.status}) in the {variant} LP "
            f"({rows} x {len(c)}) by method {settings['method']}: {res.message}"
        )
    return res


def _witness_kernel(v: np.ndarray, first: MarkovKernel, second: MarkovKernel) -> MarkovKernel:
    """The post-processing V, shape (ny, nx), read from an LP solution.

    A column for an x that no hypothesis produces is free in both programs,
    so it is filled uniformly rather than left to the solver's vertex.
    """
    v = np.clip(v, 0.0, None)
    sums = v.sum(axis=0)
    dead = (sums <= 0) | ~first.matrix.any(axis=1)
    if np.any(dead):
        v[:, dead] = 1.0 / second.target.size
        sums = v.sum(axis=0)
    return MarkovKernel(first.target, second.target, v / sums)


def _result(delta: float, v: np.ndarray, first: MarkovKernel, second: MarkovKernel, mass=None) -> DeficiencyResult:
    """delta, the witness read from the raw V, and the gap between delta and the witness's residual.

    The residual is the l1 error of simulating ``second`` by the witness
    after ``first``, averaged over ``mass`` or, when it is None, at the
    worst hypothesis.
    """
    witness = _witness_kernel(v, first, second)
    norms = np.abs(second.matrix - witness.matrix @ first.matrix).sum(axis=0)
    residual = float(norms.max() if mass is None else mass @ norms)
    return DeficiencyResult(delta=delta, witness=witness, objective_gap=abs(residual - delta))


#: Weighted problems are stacked into one LP while it has at most this many
#: rows.  The cap bounds memory: with no cap, so one LP per verify suite, the
#: peak RSS of the seven LP-backed suites (seeds 0-2, 100 trials, max-dim 6)
#: rose from 83 MB to 118 MB in one process.  At 512 rows those suites make
#: 51-54 LP calls per seed (seeds 0-3) where a cap of 2^15 cells made 160-165,
#: and the twelve suites of the benchmark's verify_all workload peaked at
#: 84.4-84.6 MB in one process against 83.3-83.6 MB (seeds 1-2); 768 rows
#: read 85.2-85.4 MB.
_BATCH_ROWS = 512


def _block(first: np.ndarray, ny: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The entries (V T)[y, theta] and the column sums of V, over the variables V[y, x].

    ``first`` is T, shape (nx, nt), and variable ``y*nx + x`` is V[y, x].
    Returns the nonzero entries of each part as (rows, cols, data): row
    ``y*nt + theta`` of the first part is the entry (y, theta) of V T, and
    row ``x`` of the second the sum of column x of V.
    """
    nx, nt = first.shape
    x, theta = np.nonzero(first)
    y = np.repeat(np.arange(ny), x.size)
    vt = (y * nt + np.tile(theta, ny), y * nx + np.tile(x, ny), np.tile(first[x, theta], ny))
    sums = (np.tile(np.arange(nx), ny), np.arange(ny * nx), np.ones(ny * nx))
    return vt, sums


def _weighted_batch(problems) -> list[tuple[float, np.ndarray]]:
    """Weighted directed deficiencies of (T, U, prior mass) array triples, in input order.

    Returns (delta, V) per problem, V being the raw multiplier block of
    shape (ny, nx).  The duals of different problems share no variable, so
    consecutive problems are stacked as the blocks of one block-diagonal LP
    while it has at most ``_BATCH_ROWS`` rows; that LP's optimum restricted
    to a block is the block's own optimum.  A problem too large for the cap
    is solved on its own.
    """
    results: list[tuple[float, np.ndarray]] = []
    group: list[tuple] = []
    rows = 0
    for problem in problems:
        r = problem[0].shape[0] * problem[1].shape[0]  # nx * ny, one row per entry of V
        if group and rows + r > _BATCH_ROWS:
            results += _weighted_group(group)
            group, rows = [], 0
        group.append(problem)
        rows += r
    if group:
        results += _weighted_group(group)
    return results


def _weighted_group(group: list[tuple]) -> list[tuple[float, np.ndarray]]:
    """Solve the stacked duals of one group of (T, U, prior mass) problems."""
    c, lower, upper, a_rows, a_cols, a_data = [], [], [], [], [], []
    row_at, col_at = [0], [0]  # where each block starts, and past the last one
    for first, second, mass in group:
        (nx, nt), ny = first.shape, second.shape[0]
        # the dual of the half-l1 program: z[y, theta] in [0, 2 prior(theta)], mu[x] free
        c += [-second.reshape(-1), -np.ones(nx)]
        lower += [np.zeros(ny * nt), np.full(nx, -np.inf)]
        upper += [np.tile(2.0 * mass, ny), np.full(nx, np.inf)]
        # the transpose of _block's two parts: their rows become the columns of z, then of mu
        (vt_rows, vt_cols, vt_data), (sum_rows, sum_cols, sum_data) = _block(first, ny)
        a_rows += [row_at[-1] + vt_cols, row_at[-1] + sum_cols]
        a_cols += [col_at[-1] + vt_rows, col_at[-1] + ny * nt + sum_rows]
        a_data += [vt_data, sum_data]
        row_at.append(row_at[-1] + ny * nx)
        col_at.append(col_at[-1] + ny * nt + nx)
    c = np.concatenate(c)
    a_ub = (np.concatenate(a_rows), np.concatenate(a_cols), np.concatenate(a_data), (row_at[-1], col_at[-1]))
    res = _solve("weighted", c, a_ub, np.zeros(row_at[-1]),
                 bounds=np.column_stack([np.concatenate(lower), np.concatenate(upper)]))
    # V is the multiplier of the rows z T + mu <= 0, negated because linprog minimizes
    v_all = -res.ineqlin.marginals
    out = []
    for (first, second, _), r0, r1, c0, c1 in zip(group, row_at, row_at[1:], col_at, col_at[1:]):
        # summed left to right, as HiGHS sums its objective
        delta = max(0.0, -float(np.cumsum(c[c0:c1] * res.x[c0:c1])[-1]))
        out.append((delta, v_all[r0:r1].reshape(second.shape[0], first.shape[0])))
    return out


def weighted_directed_deficiency(
    first: MarkovKernel, second: MarkovKernel, prior: Distribution
) -> DeficiencyResult:
    """Smallest prior-averaged l1 error in simulating ``second`` from ``first``.

    Hypotheses carrying zero prior mass simply drop out of the objective.
    """
    _check_space("deficiency: experiments must share hypotheses", first.source, second.source)
    _check_space("deficiency: prior", first.source, prior.space)
    ((delta, v),) = _weighted_batch([(first.matrix, second.matrix, prior.mass)])
    return _result(delta, v, first, second, prior.mass)


def directed_deficiency(first: MarkovKernel, second: MarkovKernel) -> DeficiencyResult:
    """Worst case over hypotheses (equivalently priors) of the simulation error."""
    _check_space("deficiency: experiments must share hypotheses", first.source, second.source)
    t, u = first.matrix, second.matrix
    (nx, nt), ny = t.shape, u.shape[0]
    nv, nr = ny * nx, ny * nt
    (rows, cols, data), sums = _block(t, ny)
    r = np.arange(nr)
    # U - V T <= r, and every per-hypothesis sum of r at most t
    a_ub = (
        np.concatenate([rows, r, nr + r % nt, nr + np.arange(nt)]),
        np.concatenate([cols, nv + r, nv + r, np.full(nt, nv + nr)]),
        np.concatenate([-data, np.full(nr, -1.0), np.ones(nr), np.full(nt, -1.0)]),
        (nr + nt, nv + nr + 1),
    )
    b_ub = np.concatenate([-u.reshape(-1), np.zeros(nt)])
    c = np.zeros(nv + nr + 1)
    c[-1] = 2.0
    res = _solve("sup", c, a_ub, b_ub, (*sums, (nx, nv + nr + 1)), np.ones(nx))
    return _result(max(0.0, float(res.fun)), res.x[:nv].reshape(ny, nx), first, second)
