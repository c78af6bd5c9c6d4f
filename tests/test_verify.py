import numpy as np
import pytest

from finexp.decisions import LossMatrix, _feature_gap, _value, feature_gap, value
from finexp.deficiency import weighted_directed_deficiency
from finexp.kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    SpaceMismatchError,
    compose,
    identity,
    pushforward,
    uniform,
)
from finexp.reconstruction import _generic_quality, generic_quality
from finexp.sampling import random_distribution, random_kernel, random_loss
from finexp.verify import _SUITE_SALT, suite_quality_certificate


def reference_quality_certificate(rng, trials, max_dim, problems_per_encoder: int = 100):
    """The quality-certificate suite built from validated objects throughout."""
    for i in range(trials):
        x_space = FiniteSpace.of_size(int(rng.integers(2, max_dim + 1)), "x")
        code = FiniteSpace.of_size(int(rng.integers(2, max_dim + 1)), "z")
        encoder = random_kernel(rng, x_space, code)
        worst = -np.inf
        data_prior = None
        eps = 0.0
        for _ in range(problems_per_encoder):
            theta = FiniteSpace.of_size(int(rng.integers(2, max_dim + 1)), "t")
            prior = random_distribution(rng, theta)
            t_exp = random_kernel(rng, theta, x_space)
            data_prior = pushforward(t_exp, prior)
            eps = generic_quality(encoder, data_prior)
            actions = FiniteSpace.of_size(int(rng.integers(2, max(3, max_dim) + 1)), "a")
            loss = random_loss(rng, theta, actions)
            gap = feature_gap(loss, prior, t_exp, encoder)
            worst = max(worst, gap - eps * loss.sup_norm)
        yield (f"trial{i}_bound", worst, 1e-6)
        lp = weighted_directed_deficiency(encoder, identity(x_space), data_prior).delta
        yield (f"trial{i}_lp_match", abs(eps - lp), 1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_quality_certificate_matches_object_reference(seed):
    salt = _SUITE_SALT["quality_certificate"]
    got = list(suite_quality_certificate(np.random.default_rng([seed, salt]), 20, 6))
    want = list(reference_quality_certificate(np.random.default_rng([seed, salt]), 20, 6))
    assert [tuple(c) for c in got] == want


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


def test_public_functions_check_spaces():
    prior, t_exp, encoder, loss = next(_instances(1))
    other = uniform(FiniteSpace.of_size(prior.space.size, "u"))
    with pytest.raises(SpaceMismatchError, match="value: prior"):
        value(loss, other, t_exp)
    with pytest.raises(SpaceMismatchError, match="value: prior"):
        feature_gap(loss, other, t_exp, encoder)
    with pytest.raises(SpaceMismatchError, match="compose"):
        feature_gap(loss, prior, t_exp, identity(encoder.target))
    with pytest.raises(SpaceMismatchError, match="optimal_decoder"):
        generic_quality(encoder, prior)
