"""Seeded property suites exercising the toolkit's guarantees end to end.

Each suite draws random instances from a seeded generator and emits one or
more named checks per trial.  A check records a violation amount and the
tolerance it is judged against: violation <= tolerance passes, and the
reported slack is tolerance minus violation (so the worst slack across a
suite is its distance from failing).  Identical arguments always reproduce
identical reports.

The suites that solve deficiency LPs draw every trial first, then solve all
of their LPs in one batch, then judge each trial.  No solve consumes the
generator, so the draws keep the order of a trial-by-trial loop; batching
saves scipy's per-call overhead, which is most of a small solve.  These
suites draw plain arrays and compute through the library's array cores
(``_value``, ``_feature_gap``, ``_generic_quality`` and the weighted LP
batch), so no draw is wrapped in a validated object.  ``_value``,
``_feature_gap`` and ``_generic_quality`` also take stacks, and
``quality_certificate`` draws each trial's 100 inner problems as padded
stacks, one generator call per array, and computes on them in a few array
operations rather than one problem at a time.  Each prior is a cut and
renormalized uniform Dirichlet draw over ``max_dim`` labels, which is
uniform Dirichlet over the labels kept.
The suites that test a public function (``stacking``,
``gap_regret_identity``, ``ib``, ``hellman_raviv`` and the value and
autoencoder oracles) call it on validated objects.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .bottleneck import ib_distortion, ib_learn
from .decisions import _feature_gap, _value, conditional_entropy, feature_gap, regret, value
from .deficiency import _weighted_batch
from .kernels import Distribution, FiniteSpace, MarkovKernel, bayes_inverse, compose, pushforward
from .reconstruction import _generic_quality, autoencode, generic_quality, stack
from .sampling import _random_columns, random_distribution, random_kernel, random_loss

#: Random losses sampled per trial of ``value_gap_bound``.
_LOSSES_PER_TRIAL = 500
#: Cost points in ``binary_cost_sweep``'s sweep of two-action losses.
_GRID_POINTS = 200
#: Consistent problems pitted against each encoder in ``quality_certificate``.
_PROBLEMS_PER_ENCODER = 100


class Check(NamedTuple):
    name: str
    violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.violation <= self.tolerance

    @property
    def slack(self) -> float:
        return self.tolerance - self.violation


@dataclass
class SuiteReport:
    suite: str
    trials: int
    checks: int
    failures: int
    worst_slack: float
    worst_check: str

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_jsonable(self) -> dict:
        return {**asdict(self), "passes": self.checks - self.failures, "passed": self.passed}


def _space_sizes(rng: np.random.Generator, max_dim: int, n: int) -> list[int]:
    return [int(rng.integers(2, max_dim + 1)) for _ in range(n)]


def _problem(rng, max_dim, n_outputs=1):
    """Prior masses over random hypotheses, and experiment matrices from them to random output sizes."""
    sizes = _space_sizes(rng, max_dim, 1 + n_outputs)
    mass = rng.dirichlet(np.ones(sizes[0]))
    return mass, [_random_columns(rng, sizes[0], size) for size in sizes[1:]]


def _objects(mass, matrices):
    """Hypothesis space, prior and experiments wrapping ``_problem``'s arrays."""
    theta = FiniteSpace.of_size(mass.size, "t")
    return theta, Distribution(theta, mass), [
        MarkovKernel(theta, FiniteSpace.of_size(m.shape[0], f"o{i}_"), m) for i, m in enumerate(matrices)
    ]


def _deltas(problems) -> list[float]:
    """Weighted directed deficiencies of (T, U, prior mass) array triples, solved as one batch."""
    return [delta for delta, _ in _weighted_batch(problems)]


def _symmetric(pairs) -> list[float]:
    """Symmetric weighted deficiencies of (T, U, prior mass) array triples, solved as one batch."""
    both = _deltas([p for t, u, mass in pairs for p in ((t, u, mass), (u, t, mass))])
    return [max(d12, d21) for d12, d21 in zip(both[::2], both[1::2])]


def suite_randomization(rng, trials, max_dim) -> Iterable[Check]:
    """Simulation error bounds the value advantage, loss by loss."""
    drawn = []
    for _ in range(trials):
        mass, (t, u) = _problem(rng, max_dim, 2)
        na = int(rng.integers(2, max(3, max_dim) + 1))
        drawn.append((t, u, mass, rng.uniform(-1.0, 1.0, size=(mass.size, na))))
    deltas = _deltas((t, u, mass) for t, u, mass, _ in drawn)
    for i, ((t, u, mass, loss), delta) in enumerate(zip(drawn, deltas)):
        lhs = _value(t, mass, loss)
        rhs = _value(u, mass, loss) + delta * np.abs(loss).max()
        yield Check(f"trial{i}", float(lhs - rhs), 1e-6)


def suite_value_gap_bound(rng, trials, max_dim) -> Iterable[Check]:
    """Sampled normalized value gaps never exceed the symmetric deficiency."""
    drawn, sampled = [], []
    for _ in range(trials):
        mass, (t, u) = _problem(rng, max_dim, 2)
        na = int(rng.integers(2, max(3, max_dim) + 1))
        losses = rng.uniform(-1.0, 1.0, size=(_LOSSES_PER_TRIAL, mass.size, na))
        # reduced as drawn: keeping every trial's losses would hold 14 MB at max_dim 6
        norms = np.abs(losses).max(axis=(1, 2))
        ratios = np.abs(_value(t, mass, losses) - _value(u, mass, losses)) / norms
        drawn.append((t, u, mass))
        sampled.append(float(ratios.max()))
    for i, (ratio, delta) in enumerate(zip(sampled, _symmetric(drawn))):
        yield Check(f"trial{i}", ratio - delta, 1e-6)


def suite_binary_cost_sweep(rng, trials, max_dim) -> Iterable[Check]:
    """On binary hypotheses a cost-sweep of two-action losses comes within 0.05 of the deficiency.

    This is a sampled property, not a theorem: no two-action gap exceeds the
    deficiency, but the best one can fall short of it by more than 0.05, and
    the suite fails on some seeds at ``max_dim`` 6.

    The sweep uses per-hypothesis-centered costs: recentering rows changes
    no value difference but halves the sup-norm, and without it the sampled
    supremum cannot approach the deficiency at all.
    """
    grid = np.linspace(1.0 / (_GRID_POINTS + 1), _GRID_POINTS / (_GRID_POINTS + 1), _GRID_POINTS)
    costs = np.stack([grid, -(1.0 - grid)], axis=1)  # [grid point, theta]
    losses = np.stack([costs, -costs], axis=2)  # two centered actions per grid point
    norms = np.abs(losses).max(axis=(1, 2))
    hi = min(max_dim, 4)
    drawn = []
    for _ in range(trials):
        mass = rng.dirichlet(np.ones(2))
        t = _random_columns(rng, 2, int(rng.integers(2, hi + 1)))
        u = _random_columns(rng, 2, int(rng.integers(2, hi + 1)))
        drawn.append((t, u, mass))
    for i, ((t, u, mass), delta) in enumerate(zip(drawn, _symmetric(drawn))):
        sampled = float((np.abs(_value(t, mass, losses) - _value(u, mass, losses)) / norms).max())
        yield Check(f"trial{i}", delta - sampled, 0.05)


def suite_encoder_shift_bound(rng, trials, max_dim) -> Iterable[Check]:
    """Encoding an experiment moves it by at most the encoder's reconstruction quality."""
    drawn = []
    for _ in range(trials):
        mass, (t,) = _problem(rng, max_dim, 1)
        drawn.append((t, mass, _random_columns(rng, t.shape[0], int(rng.integers(2, max_dim + 1)))))
    shifts = _symmetric((t, encoder @ t, mass) for t, mass, encoder in drawn)
    for i, ((t, mass, encoder), lhs) in enumerate(zip(drawn, shifts)):
        yield Check(f"trial{i}", lhs - _generic_quality(encoder, t @ mass), 1e-6)


def _problem_stack(rng, nx, max_dim):
    """A trial's random problems on ``nx`` outputs as padded stacks, one generator call per array.

    Returns the hypothesis counts ``nts``, the action counts ``nas`` and the
    stacks of masses [problem, theta], matrices [problem, x, theta] and
    losses [problem, theta, action].  Padded hypotheses carry no mass, no
    experiment column and no loss; padded actions repeat action 0.
    """
    n_actions = max(3, max_dim)
    nts = rng.integers(2, max_dim + 1, size=_PROBLEMS_PER_ENCODER)
    nas = rng.integers(2, n_actions + 1, size=_PROBLEMS_PER_ENCODER)
    live = np.arange(max_dim) < nts[:, None]
    masses = np.where(live, rng.dirichlet(np.ones(max_dim), size=_PROBLEMS_PER_ENCODER), 0.0)
    masses /= masses.sum(axis=1, keepdims=True)
    columns = rng.dirichlet(np.ones(nx), size=(_PROBLEMS_PER_ENCODER, max_dim))
    columns[~live] = 0.0
    losses = rng.uniform(-1.0, 1.0, size=(_PROBLEMS_PER_ENCODER, max_dim, n_actions))
    losses = np.where(np.arange(n_actions) < nas[:, None, None], losses, losses[:, :, :1])
    losses[~live] = 0.0
    return nts, nas, masses, columns.transpose(0, 2, 1), losses


def suite_quality_certificate(rng, trials, max_dim) -> Iterable[Check]:
    """Reconstruction quality certifies the feature gap for every consistent problem.

    Each trial fixes one encoder and pits a batch of consistent problems
    against it (the data prior, and with it the quality, follows from each
    problem's experiment and prior); the LP cross-check runs once per trial,
    on the last problem's data prior, and all of them are solved as one
    batch after the draws.

    A trial draws its problems as padded stacks (``_problem_stack``), with
    one generator call each for the hypothesis counts, the action counts,
    the priors, the experiment matrices and the losses; with the three for
    its encoder, a trial makes 8.  Problem p's prior is the first nt
    coordinates of a uniform Dirichlet draw over ``max_dim`` labels,
    renormalized: a Dirichlet vector is a vector of independent gamma draws
    divided by its sum, so a renormalized sub-vector is again one, uniform
    Dirichlet over its nt labels.  Each experiment column is uniform
    Dirichlet over the outputs and each loss uniform on [-1, 1].  Hypotheses
    beyond a problem's own carry no mass and actions beyond its own repeat
    action 0, which moves no minimum and no largest loss.  The qualities and
    feature gaps of all of them then come from a few array operations,
    through the cores of ``generic_quality`` and ``feature_gap``.
    """
    bounds, cross = [], []
    for _ in range(trials):
        nx = int(rng.integers(2, max_dim + 1))
        encoder = _random_columns(rng, nx, int(rng.integers(2, max_dim + 1)))
        nts, _, masses, matrices, losses = _problem_stack(rng, nx, max_dim)
        data_masses = (matrices @ masses[:, :, None])[:, :, 0]
        qualities = _generic_quality(encoder, data_masses)
        gaps = _feature_gap(encoder, matrices, masses, losses)
        worst = float((gaps - qualities * np.abs(losses).max(axis=(1, 2))).max())
        # the LP cross-check takes the last problem's quality as generic_quality computes it
        nt = nts[-1]
        data_mass = matrices[-1, :, :nt] @ masses[-1, :nt]
        bounds.append((worst, _generic_quality(encoder, data_mass)))
        cross.append((encoder, np.eye(nx), data_mass))
    for i, ((worst, eps), lp) in enumerate(zip(bounds, _deltas(cross))):
        yield Check(f"trial{i}_bound", worst, 1e-6)
        yield Check(f"trial{i}_lp_match", abs(eps - lp), 1e-6)


def suite_stacking(rng, trials, max_dim) -> Iterable[Check]:
    """Composed reconstruction quality is bounded by the sum over layers.

    ``stack`` is exact and deterministic (its total is the one-layer
    optimum at the smaller size), so each trial draws only a prior and two
    non-increasing code sizes.
    """
    for i in range(trials):
        n = int(rng.integers(3, max(3, max_dim) + 1))
        prior = random_distribution(rng, FiniteSpace.of_size(n, "x"))
        k1 = int(rng.integers(2, n + 1))
        k2 = int(rng.integers(1, k1 + 1))
        chain = stack(prior, [k1, k2])
        yield Check(f"trial{i}", chain.total_quality - sum(chain.layer_quality), 1e-6)


def suite_triangle(rng, trials, max_dim) -> Iterable[Check]:
    """The symmetric deficiency is a metric: triangle inequality and zero self-distance."""
    drawn = [_problem(rng, max_dim, 3) for _ in range(trials)]
    # per trial: both directions of (1, 2), (2, 3) and (1, 3), then 1 against itself
    deltas = _deltas(
        (a, b, mass)
        for mass, (t1, t2, t3) in drawn
        for a, b in ((t1, t2), (t2, t1), (t2, t3), (t3, t2), (t1, t3), (t3, t1), (t1, t1))
    )
    for i in range(trials):
        d = deltas[7 * i:7 * i + 7]
        d12, d23, d13 = max(d[0], d[1]), max(d[2], d[3]), max(d[4], d[5])
        yield Check(f"trial{i}_triangle", d13 - (d12 + d23), 1e-6)
        yield Check(f"trial{i}_self", d[6], 1e-7)


def suite_gap_regret_identity(rng, trials, max_dim) -> Iterable[Check]:
    """The feature gap equals the double expectation of posterior regrets.

    The right-hand side is summed term by term with the scalar regret
    helper, independent of the vectorized paths.
    """
    for i in range(trials):
        theta, prior, (t_exp,) = _objects(*_problem(rng, max_dim, 1))
        code = FiniteSpace.of_size(int(rng.integers(2, max_dim + 1)), "z")
        encoder = random_kernel(rng, t_exp.target, code)
        actions = FiniteSpace.of_size(int(rng.integers(2, max(3, max_dim) + 1)), "a")
        loss = random_loss(rng, theta, actions)

        lhs = feature_gap(loss, prior, t_exp, encoder)
        posts = bayes_inverse(t_exp, prior)
        coarse = bayes_inverse(compose(encoder, t_exp), prior)
        data_prior = pushforward(t_exp, prior)
        rhs = 0.0
        for x in range(t_exp.target.size):
            for z in range(code.size):
                w = data_prior.mass[x] * encoder.matrix[z, x]
                if w > 0:
                    rhs += w * regret(loss, posts.column(x), coarse.column(z))
        yield Check(f"trial{i}", abs(lhs - rhs), 1e-9)


def suite_ib(rng, trials, max_dim) -> Iterable[Check]:
    """Alternating minimization: monotone traces, and zero residual gap when codes suffice."""
    for i in range(trials):
        theta, prior, (t_exp,) = _objects(*_problem(rng, max_dim, 1))
        actions = FiniteSpace.of_size(int(rng.integers(2, max(3, max_dim) + 1)), "a")
        loss = random_loss(rng, theta, actions)
        seed = int(rng.integers(0, 2**31 - 1))

        hard = ib_learn(loss, prior, t_exp, latent_size=t_exp.target.size, beta=0.0, seed=seed)
        steps = np.diff(np.array(hard.objective_trace))
        yield Check(f"trial{i}_monotone0", float(steps.max(initial=0.0)), 1e-9)
        yield Check(f"trial{i}_gap", ib_distortion(hard, loss, prior, t_exp), 1e-9)

        beta = float(10.0 ** rng.uniform(-2, 1))
        soft = ib_learn(loss, prior, t_exp, latent_size=2, beta=beta, seed=seed)
        steps = np.diff(np.array(soft.objective_trace))
        yield Check(f"trial{i}_monotone_beta", float(steps.max(initial=0.0)), 1e-9)


def suite_hellman_raviv(rng, trials, max_dim) -> Iterable[Check]:
    """Reconstruction quality never beats its conditional-entropy bound."""
    for i in range(trials):
        n = int(rng.integers(2, max_dim + 1))
        nz = int(rng.integers(1, max_dim + 1))
        prior = random_distribution(rng, FiniteSpace.of_size(n, "x"))
        encoder = random_kernel(rng, prior.space, FiniteSpace.of_size(nz, "z"))
        yield Check(f"trial{i}", generic_quality(encoder, prior) - conditional_entropy(prior, encoder), 1e-9)


def suite_oracle_value(rng, trials, max_dim) -> Iterable[Check]:
    """Value agrees with brute force over every deterministic decision rule."""
    hi = min(max_dim, 4)
    for i in range(trials):
        nt = int(rng.integers(2, hi + 1))
        nx = int(rng.integers(2, hi + 1))
        na = int(rng.integers(2, hi + 1))
        theta = FiniteSpace.of_size(nt, "t")
        x_space = FiniteSpace.of_size(nx, "x")
        actions = FiniteSpace.of_size(na, "a")
        t_exp = random_kernel(rng, theta, x_space)
        prior = random_distribution(rng, theta)
        loss = random_loss(rng, theta, actions)

        best = np.inf
        for rule in itertools.product(range(na), repeat=nx):
            risk = 0.0
            for th in range(nt):
                for x in range(nx):
                    risk += prior.mass[th] * t_exp.matrix[x, th] * loss.values[th, rule[x]]
            best = min(best, risk)
        yield Check(f"trial{i}", abs(value(loss, prior, t_exp) - best), 1e-9)


def suite_oracle_generic(rng, trials, max_dim) -> Iterable[Check]:
    """The closed-form reconstruction quality matches the LP deficiency."""
    drawn = []
    for _ in range(trials):
        n = int(rng.integers(2, max_dim + 1))
        nz = int(rng.integers(1, max_dim + 1))
        mass = rng.dirichlet(np.ones(n))
        drawn.append((_random_columns(rng, n, nz), np.eye(n), mass))
    for i, ((encoder, _, mass), lp) in enumerate(zip(drawn, _deltas(drawn))):
        yield Check(f"trial{i}", abs(_generic_quality(encoder, mass) - lp), 1e-6)


def suite_oracle_autoencode(rng, trials, max_dim) -> Iterable[Check]:
    """The closed-form autoencoder versus exhaustive search over encoder/decoder pairs.

    Per trial it must never beat the true optimum, and across the suite it
    must attain the optimum in every trial: its largest excess over the
    optimum is one fixed check, so the report shows how close that came.
    """
    excess = -np.inf
    for i in range(trials):
        n = int(rng.integers(2, min(max_dim, 5) + 1))
        k = int(rng.integers(1, min(3, n) + 1))
        prior = random_distribution(rng, FiniteSpace.of_size(n, "x"))

        decoders = np.array(list(itertools.product(range(n), repeat=k)))
        arange = np.arange(n)
        best_prob = 0.0
        for f in itertools.product(range(k), repeat=n):
            decoded = decoders[:, list(f)]
            best_prob = max(best_prob, float(((decoded == arange) * prior.mass).sum(axis=1).max()))
        eps_opt = 2.0 * (1.0 - best_prob)

        run = autoencode(prior, k)
        yield Check(f"trial{i}_never_better", eps_opt - run.epsilon, 1e-9)
        excess = max(excess, run.epsilon - eps_opt)
    yield Check("max_excess", excess, 1e-9)


SUITES: dict[str, Callable] = {
    "randomization": suite_randomization,
    "value_gap_bound": suite_value_gap_bound,
    "binary_cost_sweep": suite_binary_cost_sweep,
    "encoder_shift_bound": suite_encoder_shift_bound,
    "quality_certificate": suite_quality_certificate,
    "stacking": suite_stacking,
    "triangle": suite_triangle,
    "gap_regret_identity": suite_gap_regret_identity,
    "ib": suite_ib,
    "hellman_raviv": suite_hellman_raviv,
    "oracle_value": suite_oracle_value,
    "oracle_generic": suite_oracle_generic,
    "oracle_autoencode": suite_oracle_autoencode,
}

_SUITE_SALT = {name: i for i, name in enumerate(SUITES)}


def run_suite(name: str, trials: int = 100, seed: int = 0, max_dim: int = 6) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if max_dim < 2:
        raise ValueError(f"max_dim must be at least 2, got {max_dim}")
    rng = np.random.default_rng([seed, _SUITE_SALT[name]])
    checks = list(SUITES[name](rng, trials, max_dim))
    failures = sum(not c.passed for c in checks)
    worst = min(checks, key=lambda c: c.slack)
    return SuiteReport(
        suite=name,
        trials=trials,
        checks=len(checks),
        failures=failures,
        worst_slack=worst.slack,
        worst_check=worst.name,
    )


def run_all(trials: int = 100, seed: int = 0, max_dim: int = 6) -> list[SuiteReport]:
    return [run_suite(name, trials=trials, seed=seed, max_dim=max_dim) for name in SUITES]
