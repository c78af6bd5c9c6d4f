from collections import Counter

import numpy as np
import pytest

from finexp.bottleneck import ib_distortion, ib_learn, ib_objective
from finexp.decisions import (
    LossMatrix,
    _feature_gap,
    _value,
    bayes_decision_rule,
    conditional_entropy,
    feature_gap,
    mutual_information,
    regret,
    value,
)
from finexp import deficiency
from finexp.deficiency import directed_deficiency, weighted_directed_deficiency
from finexp.kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    SpaceMismatchError,
    bayes_inverse,
    compose,
    pushforward,
    uniform,
)
from finexp.reconstruction import FeatureChain, _generic_quality, generic_quality
from finexp.sampling import random_distribution, random_kernel, random_loss
from finexp.verify import SUITES, _SUITE_SALT, _objects, _problem, _problem_stack, run_suite

from strategies import identity_kernel, symmetric_deficiency


def reference_quality_certificate(rng, trials, max_dim, problems_per_encoder: int = 100):
    """The quality-certificate suite's draws, sliced into validated objects problem by problem."""
    n_actions = max(3, max_dim)
    for i in range(trials):
        x_space = FiniteSpace.of_size(int(rng.integers(2, max_dim + 1)), "x")
        code = FiniteSpace.of_size(int(rng.integers(2, max_dim + 1)), "z")
        encoder = random_kernel(rng, x_space, code)
        nts = rng.integers(2, max_dim + 1, size=problems_per_encoder)
        nas = rng.integers(2, n_actions + 1, size=problems_per_encoder)
        priors = rng.dirichlet(np.ones(max_dim), size=problems_per_encoder)
        columns = rng.dirichlet(np.ones(x_space.size), size=(problems_per_encoder, max_dim))
        loss_draws = rng.uniform(-1.0, 1.0, size=(problems_per_encoder, max_dim, n_actions))
        worst = -np.inf
        for p, (nt, na) in enumerate(zip(nts, nas)):
            theta = FiniteSpace.of_size(int(nt), "t")
            prior = Distribution(theta, priors[p, :nt] / priors[p, :nt].sum())
            t_exp = MarkovKernel(theta, x_space, columns[p, :nt].T)
            data_prior = pushforward(t_exp, prior)
            eps = generic_quality(encoder, data_prior)
            loss = LossMatrix(theta, FiniteSpace.of_size(int(na), "a"), loss_draws[p, :nt, :na])
            gap = feature_gap(loss, prior, t_exp, encoder)
            worst = max(worst, gap - eps * np.abs(loss.values).max())
        yield (f"trial{i}_bound", worst, 1e-6)
        lp = weighted_directed_deficiency(encoder, identity_kernel(x_space), data_prior).delta
        yield (f"trial{i}_lp_match", abs(eps - lp), 1e-6)


# Trial-by-trial references for the suites that batch their LPs: each trial
# draws its instance and solves its LPs one call at a time before the next.


def reference_randomization(rng, trials, max_dim):
    for i in range(trials):
        theta, prior, (t_exp, u_exp) = _objects(*_problem(rng, max_dim, 2))
        actions = FiniteSpace.of_size(int(rng.integers(2, max(3, max_dim) + 1)), "a")
        loss = random_loss(rng, theta, actions)
        delta = weighted_directed_deficiency(t_exp, u_exp, prior).delta
        lhs = value(loss, prior, t_exp)
        rhs = value(loss, prior, u_exp) + delta * np.abs(loss.values).max()
        yield (f"trial{i}", lhs - rhs, 1e-6)


def reference_value_gap_bound(rng, trials, max_dim, losses_per_trial=500):
    for i in range(trials):
        theta, prior, (t_exp, u_exp) = _objects(*_problem(rng, max_dim, 2))
        delta = symmetric_deficiency(t_exp, u_exp, prior)
        na = int(rng.integers(2, max(3, max_dim) + 1))
        losses = rng.uniform(-1.0, 1.0, size=(losses_per_trial, theta.size, na))
        norms = np.abs(losses).max(axis=(1, 2))
        jt = t_exp.matrix * prior.mass[None, :]
        ju = u_exp.matrix * prior.mass[None, :]
        vt = np.einsum("xt,nta->nxa", jt, losses).min(axis=2).sum(axis=1)
        vu = np.einsum("xt,nta->nxa", ju, losses).min(axis=2).sum(axis=1)
        ratios = np.abs(vt - vu) / norms
        yield (f"trial{i}", float(ratios.max()) - delta, 1e-6)


def reference_binary_cost_sweep(rng, trials, max_dim, grid_points=200):
    grid = np.linspace(1.0 / (grid_points + 1), grid_points / (grid_points + 1), grid_points)
    cost_cols = np.stack([grid, -(1.0 - grid)], axis=1)
    norms = np.maximum(grid, 1.0 - grid)
    for i in range(trials):
        theta = FiniteSpace.of_size(2, "t")
        prior = random_distribution(rng, theta)
        hi = min(max_dim, 4)
        t_exp = random_kernel(rng, theta, FiniteSpace.of_size(int(rng.integers(2, hi + 1)), "x"))
        u_exp = random_kernel(rng, theta, FiniteSpace.of_size(int(rng.integers(2, hi + 1)), "y"))
        delta = symmetric_deficiency(t_exp, u_exp, prior)
        jt = t_exp.matrix * prior.mass[None, :]
        ju = u_exp.matrix * prior.mass[None, :]
        vt = np.minimum(jt @ cost_cols.T, -(jt @ cost_cols.T)).sum(axis=0)
        vu = np.minimum(ju @ cost_cols.T, -(ju @ cost_cols.T)).sum(axis=0)
        sampled = float((np.abs(vt - vu) / norms).max())
        yield (f"trial{i}", delta - sampled, 0.05)


def reference_encoder_shift_bound(rng, trials, max_dim):
    for i in range(trials):
        theta, prior, (t_exp,) = _objects(*_problem(rng, max_dim, 1))
        code = FiniteSpace.of_size(int(rng.integers(2, max_dim + 1)), "z")
        encoder = random_kernel(rng, t_exp.target, code)
        lhs = symmetric_deficiency(t_exp, compose(encoder, t_exp), prior)
        rhs = generic_quality(encoder, pushforward(t_exp, prior))
        yield (f"trial{i}", lhs - rhs, 1e-6)


def reference_triangle(rng, trials, max_dim):
    for i in range(trials):
        theta, prior, (t1, t2, t3) = _objects(*_problem(rng, max_dim, 3))
        d12 = symmetric_deficiency(t1, t2, prior)
        d23 = symmetric_deficiency(t2, t3, prior)
        d13 = symmetric_deficiency(t1, t3, prior)
        yield (f"trial{i}_triangle", d13 - (d12 + d23), 1e-6)
        yield (f"trial{i}_self", weighted_directed_deficiency(t1, t1, prior).delta, 1e-7)


def reference_oracle_generic(rng, trials, max_dim):
    for i in range(trials):
        n = int(rng.integers(2, max_dim + 1))
        nz = int(rng.integers(1, max_dim + 1))
        prior = random_distribution(rng, FiniteSpace.of_size(n, "x"))
        encoder = random_kernel(rng, prior.space, FiniteSpace.of_size(nz, "z"))
        lp = weighted_directed_deficiency(encoder, identity_kernel(prior.space), prior).delta
        yield (f"trial{i}", abs(generic_quality(encoder, prior) - lp), 1e-6)


#: suite -> (trial-by-trial reference, max_dim, suffixes of the checks that must match exactly)
LP_SUITE_REFERENCES = {
    "randomization": (reference_randomization, 6, ()),
    "value_gap_bound": (reference_value_gap_bound, 6, ()),
    "binary_cost_sweep": (reference_binary_cost_sweep, 4, ()),
    "encoder_shift_bound": (reference_encoder_shift_bound, 6, ()),
    # the bounds come from padded stacks, whose sums may round differently
    "quality_certificate": (reference_quality_certificate, 6, ("_lp_match",)),
    "triangle": (reference_triangle, 6, ()),
    "oracle_generic": (reference_oracle_generic, 6, ()),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(LP_SUITE_REFERENCES))
def test_batched_suite_matches_trial_by_trial_reference(name, seed):
    reference, max_dim, exact = LP_SUITE_REFERENCES[name]
    salt = _SUITE_SALT[name]
    got = list(SUITES[name](np.random.default_rng([seed, salt]), 20, max_dim))
    want = list(reference(np.random.default_rng([seed, salt]), 20, max_dim))
    assert [(c.name, c.tolerance) for c in got] == [(n, tol) for n, _, tol in want]
    for check, (_, violation, _) in zip(got, want):
        if check.name.endswith(exact):
            assert check.violation == violation, check.name
        else:
            assert abs(check.violation - violation) <= 1e-12, check.name


def test_lp_suites_build_no_validated_objects(monkeypatch):
    """The LP-backed suites draw and compute on arrays: they build no space, distribution, kernel or loss."""
    built = Counter()
    for cls in (FiniteSpace, Distribution, MarkovKernel, LossMatrix):
        def counted(obj, post_init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            post_init(obj)

        monkeypatch.setattr(cls, "__post_init__", counted)
    for name in LP_SUITE_REFERENCES:
        assert run_suite(name, trials=3, seed=0, max_dim=4).checks > 0
    assert not built
    uniform(FiniteSpace.of_size(2))
    assert built == {"FiniteSpace": 1, "Distribution": 1}


def test_triangle_batches_its_lps(linprog_calls):
    # 20 trials of 7 LPs each: 140 calls one at a time
    run_suite("triangle", 20, 0, 6)
    assert 0 < len(linprog_calls) <= 5


#: LP calls of each LP suite at 20 trials, seed 0 and max-dim 6 (one call per
#: trial and LP would be 20 to 140 of them)
LP_CALLS = {"randomization": 1, "value_gap_bound": 2, "binary_cost_sweep": 1, "encoder_shift_bound": 2,
            "quality_certificate": 1, "triangle": 5, "oracle_generic": 1}


@pytest.mark.parametrize("name", sorted(LP_CALLS))
def test_lp_suites_fill_their_batches(linprog_calls, name):
    run_suite(name, 20, 0, 6)
    assert 0 < len(linprog_calls) <= LP_CALLS[name]
    assert all(call["A_ub"].shape[0] <= deficiency._BATCH_ROWS for call in linprog_calls)


class _CountingGenerator:
    """A generator that counts the calls made to it."""

    def __init__(self, rng):
        self._rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def test_quality_certificate_draws_each_trial_in_a_few_calls():
    # drawn one problem at a time, a trial takes 5 calls for each of its 100 problems
    rng = _CountingGenerator(np.random.default_rng([0, _SUITE_SALT["quality_certificate"]]))
    checks = list(SUITES["quality_certificate"](rng, 20, 6))
    assert len(checks) == 40 and all(check.passed for check in checks)
    assert 0 < rng.calls <= 10 * 20


def test_quality_certificate_passes_at_the_label_cap():
    report = run_suite("quality_certificate", 2, 0, 32)
    assert report.passed and report.checks == 4


@pytest.mark.parametrize("max_dim", [2, 6, 32])
def test_problem_stack_draws_padded_problems(max_dim):
    rng = np.random.default_rng(max_dim)
    n_actions = max(3, max_dim)
    seen_nt, seen_na = set(), set()
    for _ in range(20):
        nx = int(rng.integers(2, max_dim + 1))
        nts, nas, masses, matrices, losses = _problem_stack(rng, nx, max_dim)
        assert masses.shape == (100, max_dim) and matrices.shape == (100, nx, max_dim)
        assert losses.shape == (100, max_dim, n_actions)
        live = np.arange(max_dim) < nts[:, None]
        assert np.all(masses[~live] == 0.0) and np.all(masses[live] > 0.0)
        assert np.allclose(masses.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        columns = matrices.transpose(0, 2, 1)
        assert np.all(columns[~live] == 0.0) and np.all(columns >= 0.0)
        assert np.allclose(columns[live].sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert np.all(losses[~live] == 0.0) and np.all(np.abs(losses) <= 1.0)
        for loss, na in zip(losses, nas):
            assert np.array_equal(loss[:, na:], np.repeat(loss[:, :1], n_actions - na, axis=1))
        seen_nt.update(nts.tolist())
        seen_na.update(nas.tolist())
    assert seen_nt == set(range(2, max_dim + 1))
    assert seen_na == set(range(2, n_actions + 1))


def _instances(n):
    """Seeded problems; every third prior has zero masses, every other encoder an unused code."""
    rng = np.random.default_rng(11)
    for i in range(n):
        nt, nx, nz, na = (int(v) for v in rng.integers(2, 7, size=4))
        mass = rng.dirichlet(np.ones(nt))
        if i % 3 == 0:
            mass[rng.integers(0, nt, size=nt - 1)] = 0.0
            mass /= mass.sum()
        t_matrix = rng.dirichlet(np.ones(nx), size=nt).T
        e_matrix = rng.dirichlet(np.ones(nz), size=nx).T
        if i % 2 == 0:
            e_matrix = np.vstack([e_matrix, np.zeros((1, nx))])
        loss_values = rng.uniform(-1.0, 1.0, size=(nt, na))
        theta = FiniteSpace.of_size(nt, "t")
        x_space = FiniteSpace.of_size(nx, "x")
        code = FiniteSpace.of_size(e_matrix.shape[0], "z")
        yield (
            Distribution(theta, mass),
            MarkovKernel(theta, x_space, t_matrix),
            MarkovKernel(x_space, code, e_matrix),
            LossMatrix(theta, FiniteSpace.of_size(na, "a"), loss_values),
        )


def _loop_value(t_matrix, mass, loss_values):
    """Sum over outputs of the least expected loss, term by term."""
    nx, nt = t_matrix.shape
    total = 0.0
    for x in range(nx):
        total += min(
            sum(mass[t] * t_matrix[x, t] * loss_values[t, a] for t in range(nt))
            for a in range(loss_values.shape[1])
        )
    return total


def _best_decoder_quality(e_matrix, mass):
    """Twice the error of the best decoder: each code goes to its heaviest preimage."""
    nz, nx = e_matrix.shape
    recovered = sum(max(e_matrix[z, x] * mass[x] for x in range(nx)) for z in range(nz))
    return 2.0 * (1.0 - recovered)


def test_public_functions_equal_their_cores():
    for prior, t_exp, encoder, loss in _instances(300):
        v = value(loss, prior, t_exp)
        assert v == _value(t_exp.matrix, prior.mass, loss.values)
        assert v == pytest.approx(_loop_value(t_exp.matrix, prior.mass, loss.values), abs=1e-12)

        gap = feature_gap(loss, prior, t_exp, encoder)
        assert gap == _feature_gap(encoder.matrix, t_exp.matrix, prior.mass, loss.values)
        assert gap == value(loss, prior, compose(encoder, t_exp)) - v
        coarse = _loop_value(encoder.matrix @ t_exp.matrix, prior.mass, loss.values)
        assert gap == pytest.approx(coarse - v, abs=1e-12)

        data_prior = pushforward(t_exp, prior)
        eps = generic_quality(encoder, data_prior)
        assert eps == _generic_quality(encoder.matrix, data_prior.mass)
        assert eps == pytest.approx(_best_decoder_quality(encoder.matrix, data_prior.mass), abs=1e-12)

        # input x0 gets mass zero and a code of its own: a code of mass zero that
        # still has weight on an input, next to the all-zero row of every other encoder
        atom = data_prior.mass.copy()
        atom[0] = 0.0
        atom /= atom.sum()
        first = np.arange(atom.size) == 0
        lone = np.vstack([encoder.matrix * ~first, first])
        eps = generic_quality(
            MarkovKernel(data_prior.space, FiniteSpace.of_size(lone.shape[0], "z"), lone),
            Distribution(data_prior.space, atom),
        )
        assert eps == _generic_quality(lone, atom)
        assert eps == pytest.approx(_best_decoder_quality(lone, atom), abs=1e-12)


def test_public_functions_check_spaces():
    prior, t_exp, encoder, loss = next(_instances(1))
    other = uniform(FiniteSpace.of_size(prior.space.size, "u"))
    theta, u, x, z = prior.space, other.space, t_exp.target, encoder.target
    # the experiment and the loss over hypotheses u instead of theta
    alien = MarkovKernel(u, x, t_exp.matrix)
    alien_loss = LossMatrix(u, loss.actions, loss.values)
    # the experiment with its outputs x relabelled w
    w = FiniteSpace.of_size(x.size, "w")
    relabelled = MarkovKernel(theta, w, t_exp.matrix)
    state = ib_learn(loss, prior, t_exp, latent_size=2)
    for context, expected, got, call in (
        ("value: prior", theta, u, lambda: value(loss, other, t_exp)),
        ("value: experiment input", theta, u, lambda: value(loss, prior, alien)),
        ("feature_gap: prior", theta, u, lambda: feature_gap(loss, other, t_exp, encoder)),
        ("feature_gap: encoder input", x, z, lambda: feature_gap(loss, prior, t_exp, identity_kernel(z))),
        ("generic_quality", x, theta, lambda: generic_quality(encoder, prior)),
        ("bayes_decision_rule: prior", theta, u, lambda: bayes_decision_rule(loss, other, t_exp)),
        ("bottleneck: prior", theta, u, lambda: ib_learn(loss, other, t_exp, latent_size=2)),
        ("bottleneck: prior", theta, u, lambda: ib_distortion(state, loss, other, t_exp)),
        ("bottleneck: prior", theta, u, lambda: ib_objective(state, loss, other, t_exp)),
        ("bottleneck: loss hypotheses", theta, u, lambda: ib_learn(alien_loss, prior, t_exp, latent_size=2)),
        ("bottleneck: state encoder input", w, x, lambda: ib_distortion(state, loss, prior, relabelled)),
        ("bottleneck: state centroid posteriors", u, theta, lambda: ib_objective(state, loss, prior, alien)),
        ("regret", theta, u, lambda: regret(loss, other, prior)),
        ("regret", theta, u, lambda: regret(loss, prior, other)),
        ("conditional_entropy", x, u, lambda: conditional_entropy(other, encoder)),
        ("mutual_information", x, u, lambda: mutual_information(other, encoder)),
        ("pushforward", theta, u, lambda: pushforward(t_exp, other)),
        ("bayes_inverse", theta, u, lambda: bayes_inverse(t_exp, other)),
        ("compose: outer input must match inner output", x, theta, lambda: compose(t_exp, t_exp)),
        ("chain: adjacent layers", z, x, lambda: FeatureChain((encoder, encoder), (0.0, 0.0), 0.0)),
        ("deficiency: prior", theta, u, lambda: weighted_directed_deficiency(t_exp, t_exp, other)),
        ("deficiency: experiments must share hypotheses", theta, u,
         lambda: weighted_directed_deficiency(t_exp, alien, prior)),
        ("deficiency: experiments must share hypotheses", theta, u, lambda: directed_deficiency(t_exp, alien)),
    ):
        with pytest.raises(SpaceMismatchError) as err:
            call()
        assert str(err.value) == f"{context}: expected space {expected.labels}, got {got.labels}"


@pytest.mark.parametrize("name, kwargs, message", [
    ("nope", {}, "unknown suite 'nope'; available: "),
    ("triangle", {"trials": 0}, "trials must be at least 1"),
    ("triangle", {"max_dim": 1}, "max_dim must be at least 2"),
])
def test_run_suite_rejects_bad_arguments(name, kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_suite(name, **kwargs)
