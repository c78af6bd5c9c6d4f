import itertools
import math
import warnings

import numpy as np
import pytest

import finexp.bottleneck
from finexp.bottleneck import (
    IBState,
    _largest_rise,
    _objective,
    _problem,
    _regret_table,
    _seed_assignment,
    centroid_step,
    encoder_step,
    ib_distortion,
    ib_learn,
    ib_objective,
    latent_prior_step,
)
from finexp.decisions import (
    mutual_information,
    regret,
)
from finexp.kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    SpaceMismatchError,
    bayes_inverse,
    pushforward,
    uniform,
)
from finexp.verify import random_distribution, random_kernel, random_loss

from strategies import blind_kernel, identity_kernel, information_gap, zero_one_loss


def random_problem(rng, nt=(2, 4), nx=(2, 6), na=(2, 4)):
    theta = FiniteSpace.of_size(int(rng.integers(nt[0], nt[1] + 1)), "t")
    x = FiniteSpace.of_size(int(rng.integers(nx[0], nx[1] + 1)), "x")
    exp = random_kernel(rng, theta, x)
    pi = random_distribution(rng, theta)
    loss = random_loss(rng, theta, FiniteSpace.of_size(int(rng.integers(na[0], na[1] + 1)), "a"))
    return loss, pi, exp


class TestObjective:
    def test_triple_sum_oracle(self):
        # recompute the regret term with scalar calls and the KL term by hand
        rng = np.random.default_rng(0)
        for _ in range(20):
            loss, pi, exp = random_problem(rng)
            k = int(rng.integers(1, 4))
            z = FiniteSpace.of_size(k, "z")
            state = IBState(
                encoder=random_kernel(rng, exp.target, z),
                centroid_posteriors=random_kernel(rng, z, exp.source),
                latent_prior=random_distribution(rng, z),
                beta=float(rng.uniform(0, 2)),
            )
            posts = bayes_inverse(exp, pi)
            px = pushforward(exp, pi)
            expect = 0.0
            for x in range(exp.target.size):
                for zz in range(k):
                    w = px.mass[x] * state.encoder.matrix[zz, x]
                    expect += w * regret(loss, posts.column(x), state.centroid_posteriors.column(zz))
            if state.beta > 0:
                for x in range(exp.target.size):
                    if px.mass[x] > 0:
                        p = state.encoder.matrix[:, x]
                        q = state.latent_prior.mass
                        sup = p > 0
                        expect += state.beta * px.mass[x] * float(
                            np.sum(p[sup] * np.log(p[sup] / q[sup]))
                        )
            assert ib_objective(state, loss, pi, exp) == pytest.approx(expect, abs=1e-9)

    def test_perfect_codes_zero(self):
        # a lossless encoder whose centroids are the true posteriors
        rng = np.random.default_rng(1)
        loss, pi, exp = random_problem(rng)
        posts = bayes_inverse(exp, pi)
        nx = exp.target.size
        z = FiniteSpace.of_size(nx, "z")
        state = IBState(
            encoder=MarkovKernel(exp.target, z, np.eye(nx)),
            centroid_posteriors=MarkovKernel(z, exp.source, posts.matrix),
            latent_prior=pushforward(exp, pi),
            beta=0.0,
        )
        assert ib_objective(state, loss, pi, exp) == pytest.approx(0.0, abs=1e-12)

    def test_constant_feature_recovers_information_gap(self):
        # one code whose centroid is the prior: the lost value is the whole gap
        rng = np.random.default_rng(2)
        loss, pi, exp = random_problem(rng)
        z = FiniteSpace.of_size(1, "z")
        state = IBState(
            encoder=blind_kernel(exp.target),
            centroid_posteriors=MarkovKernel(z, exp.source, pi.mass[:, None]),
            latent_prior=Distribution(z, [1.0]),
            beta=0.0,
        )
        got = ib_objective(state, loss, pi, exp)
        assert got == pytest.approx(information_gap(loss, pi, exp), abs=1e-9)

    def test_infinite_on_unsupported_reference(self):
        rng = np.random.default_rng(3)
        loss, pi, exp = random_problem(rng)
        z = FiniteSpace.of_size(2, "z")
        state = IBState(
            encoder=MarkovKernel(exp.target, z, np.ones((2, exp.target.size)) / 2),
            centroid_posteriors=random_kernel(rng, z, exp.source),
            latent_prior=Distribution(z, [1.0, 0.0]),
            beta=1.0,
        )
        assert ib_objective(state, loss, pi, exp) == np.inf

    def test_penalty_ignores_inputs_of_zero_mass(self):
        # only inputs of positive mass pay for codes the reference prior lacks
        theta = FiniteSpace.of_size(2, "t")
        x = FiniteSpace.of_size(3, "x")
        exp = MarkovKernel(theta, x, [[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]])
        pi = uniform(theta)
        loss = zero_one_loss(theta)
        z = FiniteSpace.of_size(2, "z")
        centroids = MarkovKernel(z, theta, np.full((2, 2), 0.5))
        prior = Distribution(z, [1.0, 0.0])
        on_dead_input = MarkovKernel(x, z, [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        on_live_input = MarkovKernel(x, z, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        state = IBState(encoder=on_dead_input, centroid_posteriors=centroids, latent_prior=prior, beta=1.0)
        assert ib_objective(state, loss, pi, exp) == ib_distortion(state, loss, pi, exp)
        state = IBState(encoder=on_live_input, centroid_posteriors=centroids, latent_prior=prior, beta=1.0)
        assert ib_objective(state, loss, pi, exp) == np.inf


class TestSteps:
    def test_each_step_never_increases(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for t in range(60):
            loss, pi, exp = random_problem(rng)
            beta = 0.0 if t % 2 == 0 else float(10 ** rng.uniform(-2, 1))
            state = ib_learn(loss, pi, exp, latent_size=2, beta=beta, max_iters=2, seed=t)
            problem = _problem(loss, pi, exp)
            enc, cents, q = state.encoder.matrix, state.centroid_posteriors.matrix, state.latent_prior.mass
            objs = [_objective(problem, enc, _regret_table(problem, cents), q, beta)]
            cents = centroid_step(problem, enc, beta)
            table = _regret_table(problem, cents)
            objs.append(_objective(problem, enc, table, q, beta))
            q = latent_prior_step(problem, enc)
            objs.append(_objective(problem, enc, table, q, beta))
            enc = encoder_step(table, q, beta)
            objs.append(_objective(problem, enc, table, q, beta))
            worst = max(worst, np.diff(objs).max())
        assert worst <= 1e-9

    def test_fixed_point_consistency(self):
        # a stalled objective is only an approximate fixed point; iterate the
        # update map until the state itself stops moving, then the marginal
        # and centroid identities must hold
        rng = np.random.default_rng(5)
        for t in range(20):
            loss, pi, exp = random_problem(rng)
            state = ib_learn(loss, pi, exp, latent_size=3, beta=0.5, max_iters=500, seed=t)
            problem = _problem(loss, pi, exp)
            enc = state.encoder.matrix
            for _ in range(5000):
                before = enc
                centroids = centroid_step(problem, enc, 0.5)
                latent_prior = latent_prior_step(problem, enc)
                enc = encoder_step(_regret_table(problem, centroids), latent_prior, 0.5)
                if np.abs(enc - before).max() < 1e-13:
                    break
            encoder = MarkovKernel(exp.target, state.encoder.target, enc)
            px = pushforward(exp, pi)
            np.testing.assert_allclose(latent_prior, pushforward(encoder, px).mass, atol=1e-9)
            posts = bayes_inverse(exp, pi)
            inv = bayes_inverse(encoder, px)
            means = posts.matrix @ inv.matrix
            live = np.flatnonzero(pushforward(encoder, px).mass > 0)
            np.testing.assert_allclose(centroids[:, live], means[:, live], atol=1e-9)


class TestLoop:
    """Each regret table is built once: one per iteration, one column per added seed."""

    @pytest.fixture
    def table_widths(self, monkeypatch):
        widths = []

        def counted(problem, centroids):
            widths.append(centroids.shape[1])
            return _regret_table(problem, centroids)

        monkeypatch.setattr(finexp.bottleneck, "_regret_table", counted)
        return widths

    @staticmethod
    def full_table_seeding(problem, k, rng):
        """The reference: a table over every seed so far, each time one is added."""
        support = np.flatnonzero(problem.px > 0)
        seeds = [int(rng.choice(support))]
        while len(seeds) < k:
            nearest = _regret_table(problem, problem.posts[:, seeds])[support].min(axis=1)
            if nearest.max() <= 1e-15:
                break
            seeds.append(int(support[np.argmax(nearest)]))
        return np.argmin(_regret_table(problem, problem.posts[:, seeds]), axis=1)

    def test_one_column_per_added_seed(self, table_widths):
        # input x2 has posterior (1/2, 1/2, 0), so seeds acting 0 and 1 tie on it
        theta = FiniteSpace.of_size(3, "t")
        tied = MarkovKernel(theta, FiniteSpace.of_size(4, "x"),
                            [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.25, 0.25, 0.0], [0.25, 0.25, 1.0]])
        rng = np.random.default_rng(13)
        problems = [(*random_problem(rng, nx=(2, 10)), int(rng.integers(1, 12))) for _ in range(40)]
        problems += [(zero_one_loss(theta), uniform(theta), tied, 3)] * 8
        for t, (loss, pi, exp, k) in enumerate(problems):
            problem = _problem(loss, pi, exp)
            expect = self.full_table_seeding(problem, k, np.random.default_rng(t))
            table_widths.clear()
            assign = _seed_assignment(problem, k, np.random.default_rng(t))
            np.testing.assert_array_equal(assign, expect)
            # each seed is nearest to itself, so every seed holds a code
            assert table_widths == [1] * len(np.unique(assign))

    def test_one_table_per_iteration(self, table_widths):
        # inputs x_i and x_{i+4} point to hypothesis i, so seeding finds four
        # seeds, and beta > 0 gives every seeded code weight: none ever dies.
        # Codes past the fourth start dead and stay dead, so no table reseeds them
        theta = FiniteSpace.of_size(4, "t")
        m = np.random.default_rng(14).uniform(0.05, 0.1, (8, 4))
        m[np.arange(4), np.arange(4)] += 0.5
        m[np.arange(4, 8), np.arange(4)] += 0.3
        exp = MarkovKernel(theta, FiniteSpace.of_size(8, "x"), m / m.sum(axis=0))
        loss, pi = zero_one_loss(theta), uniform(theta)
        for latent in (4, 6):
            for iters in (1, 2, 3, 200):
                table_widths.clear()
                state = ib_learn(loss, pi, exp, latent_size=latent, beta=0.1, max_iters=iters)
                iterations = len(state.objective_trace) - 1
                assert table_widths == [1] * 4 + [latent] * iterations
            assert iterations < 200
            assert np.count_nonzero(state.latent_prior.mass) == 4

    def test_reseeding_revives_dead_codes_at_beta_zero(self, monkeypatch):
        # a start with every input on code 0 leaves codes 1 and 2 dead; at
        # beta = 0 reseeding puts them on the worst-served inputs and the
        # encoder step takes them up, while at beta > 0 they cannot revive
        theta = FiniteSpace.of_size(3, "t")
        loss, pi, exp = zero_one_loss(theta), uniform(theta), identity_kernel(theta)
        monkeypatch.setattr(finexp.bottleneck, "_seed_assignment", lambda problem, k, rng: np.zeros(3, int))
        hard = ib_learn(loss, pi, exp, latent_size=3, beta=0.0)
        np.testing.assert_array_equal(hard.encoder.matrix, np.eye(3))
        assert hard.objective_trace[0] == pytest.approx(2 / 3, abs=1e-12)
        assert hard.objective_trace[-1] == 0.0
        soft = ib_learn(loss, pi, exp, latent_size=3, beta=0.1)
        np.testing.assert_array_equal(soft.encoder.matrix, [[1.0] * 3, [0.0] * 3, [0.0] * 3])
        assert soft.objective_trace[-1] == pytest.approx(2 / 3, abs=1e-12)

    def test_trace_ends_at_the_returned_state(self):
        # the golden outputs never set --iters, so only this pins a run the cap stops
        rng = np.random.default_rng(15)
        for t in range(40):
            loss, pi, exp = random_problem(rng)
            beta = 0.0 if t % 2 == 0 else float(10 ** rng.uniform(-2, 1))
            for iters in (1, 2, 3, 500):
                state = ib_learn(loss, pi, exp, latent_size=2, beta=beta, max_iters=iters, seed=t)
                assert len(state.objective_trace) - 1 <= iters
                assert state.objective_trace[-1] == ib_objective(state, loss, pi, exp)
                if beta == 0:
                    assert state.objective_trace[-1] == ib_distortion(state, loss, pi, exp)
            assert len(state.objective_trace) - 1 < 500


class TestLearn:
    def test_trace_non_increasing(self):
        rng = np.random.default_rng(6)
        for t in range(40):
            loss, pi, exp = random_problem(rng)
            beta = 0.0 if t % 2 == 0 else float(10 ** rng.uniform(-2, 1))
            state = ib_learn(loss, pi, exp, latent_size=2, beta=beta, seed=t)
            diffs = np.diff(np.array(state.objective_trace))
            assert diffs.max(initial=0.0) <= 1e-9

    def test_enough_codes_zero_distortion(self):
        rng = np.random.default_rng(7)
        for t in range(25):
            loss, pi, exp = random_problem(rng)
            state = ib_learn(loss, pi, exp, latent_size=exp.target.size, beta=0.0, seed=t)
            assert ib_distortion(state, loss, pi, exp) <= 1e-9

    def test_huge_beta_collapses_code(self):
        rng = np.random.default_rng(8)
        for t in range(10):
            loss, pi, exp = random_problem(rng)
            state = ib_learn(loss, pi, exp, latent_size=2, beta=1e6, seed=t)
            px = pushforward(exp, pi)
            assert mutual_information(px, state.encoder) <= 1e-3

    def test_matches_exhaustive_clustering_zero_one_binary(self):
        # beta = 0 with the misclassification loss is a clustering of
        # posteriors; enumerate every assignment as the oracle
        rng = np.random.default_rng(9)
        for t in range(25):
            nx = int(rng.integers(3, 9))
            k = int(rng.integers(1, 4))
            theta = FiniteSpace.of_size(2, "t")
            exp = random_kernel(rng, theta, FiniteSpace.of_size(nx, "x"))
            pi = random_distribution(rng, theta)
            loss = zero_one_loss(theta)
            state = ib_learn(loss, pi, exp, latent_size=k, beta=0.0, seed=t)
            got = ib_distortion(state, loss, pi, exp)

            posts = bayes_inverse(exp, pi)
            px = pushforward(exp, pi)
            problem = _problem(loss, pi, exp)
            best = np.inf
            for assign in itertools.product(range(k), repeat=nx):
                a = np.array(assign)
                cents = np.full((2, k), 0.5)
                for zz in range(k):
                    members = np.flatnonzero(a == zz)
                    w = px.mass[members]
                    if w.sum() > 0:
                        cents[:, zz] = posts.matrix[:, members] @ w / w.sum()
                table = _regret_table(problem, cents)
                best = min(best, float(np.sum(px.mass * table[np.arange(nx), a])))
            assert got == pytest.approx(best, abs=1e-9)

    def test_seed_reproducible(self):
        rng = np.random.default_rng(10)
        loss, pi, exp = random_problem(rng)
        a = ib_learn(loss, pi, exp, latent_size=2, beta=0.3, seed=42)
        b = ib_learn(loss, pi, exp, latent_size=2, beta=0.3, seed=42)
        np.testing.assert_array_equal(a.encoder.matrix, b.encoder.matrix)
        assert a.objective_trace == b.objective_trace

    def test_invalid_arguments(self):
        rng = np.random.default_rng(11)
        loss, pi, exp = random_problem(rng)
        with pytest.raises(ValueError, match="latent_size must be at least 1"):
            ib_learn(loss, pi, exp, latent_size=0)
        with pytest.raises(ValueError, match="beta must be nonnegative"):
            ib_learn(loss, pi, exp, latent_size=2, beta=-1.0)
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            ib_learn(loss, pi, exp, latent_size=2, max_iters=0)

    def test_validates_once(self, monkeypatch):
        # kernels are built at the boundary and on return, never per iteration
        built = []
        post_init = MarkovKernel.__post_init__

        def counted(kernel):
            built.append(kernel)
            post_init(kernel)

        monkeypatch.setattr(MarkovKernel, "__post_init__", counted)
        loss, pi, exp = random_problem(np.random.default_rng(7), nt=(4, 6), nx=(8, 12), na=(3, 5))
        counts = {}
        for iters in (1, 40):
            built.clear()
            state = ib_learn(loss, pi, exp, latent_size=4, beta=0.1, max_iters=iters)
            counts[len(state.objective_trace) - 1] = len(built)
        assert sorted(counts) == [1, 40]
        assert counts[1] == counts[40]

    def test_loss_over_other_hypotheses_is_a_mismatch(self):
        loss, pi, exp = random_problem(np.random.default_rng(12), nt=(3, 3))
        other = FiniteSpace.of_size(2, "u")
        with pytest.raises(SpaceMismatchError, match="loss hypotheses"):
            ib_learn(zero_one_loss(other), pi, exp, latent_size=2)


@pytest.mark.parametrize(
    "trace",
    [
        [0.4, 0.4],
        [1.0, 1.0 + 2e-9],
        [1.0, 1.0 + 5e-10],
        [math.inf, math.inf],
        [math.inf, 5.0],
        [1.0, math.nan],
        [math.nan, 1.0],
        [1.0, 2.0, 1.0],
    ],
)
def test_largest_rise_agrees_with_the_pairwise_rule(trace):
    # the pairwise rule is the ib command's former trace_nonincreasing, which a NaN step fails
    pairwise = all(b - a <= 1e-9 for a, b in zip(trace, trace[1:]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (_largest_rise(trace) <= 1e-9) == pairwise
