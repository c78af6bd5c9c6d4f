import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finexp.decisions import (
    LossMatrix,
    _xlogy,
    bayes_decision_rule,
    conditional_entropy,
    feature_gap,
    mutual_information,
    regret,
    value,
)
from finexp.kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    compose,
    uniform,
)

import strategies as strat
from strategies import bayes_risk, blind_kernel, bsc, entropy, identity_kernel, information_gap, zero_one_loss


class TestLossMatrix:
    def test_rejects_non_finite(self):
        t = FiniteSpace.of_size(2, "t")
        with pytest.raises(ValueError, match="finite"):
            LossMatrix(t, t, [[0, np.inf], [1, 0]])


class TestBayesRisk:
    """The value is the least Bayes risk of any rule that sees the experiment's output."""

    def test_zero_loss(self):
        # every action ties, so the Bayes rule takes the lowest one and risks nothing
        t = FiniteSpace.of_size(3, "t")
        loss = LossMatrix(t, t, np.zeros((3, 3)))
        rule = bayes_decision_rule(loss, uniform(t), identity_kernel(t))
        np.testing.assert_array_equal(rule.matrix, [[1, 1, 1], [0, 0, 0], [0, 0, 0]])
        assert bayes_risk(loss, uniform(t), rule) == 0.0

    def test_perfect_rule(self):
        t = FiniteSpace.of_size(3, "t")
        rule = bayes_decision_rule(zero_one_loss(t), uniform(t), identity_kernel(t))
        np.testing.assert_array_equal(rule.matrix, np.eye(3))
        assert bayes_risk(zero_one_loss(t), uniform(t), rule) == 0.0

    @settings(max_examples=60)
    @given(st.data())
    def test_double_sum_oracle(self, data):
        # brute force over every deterministic rule, each risk a double sum
        loss = data.draw(strat.losses())
        prior = data.draw(strat.distributions(space=loss.theta))
        exp = data.draw(strat.kernels(source=loss.theta))
        nt, nx, na = loss.theta.size, exp.target.size, loss.actions.size
        oracle = min(
            sum(
                prior.mass[i] * exp.matrix[x, i] * loss.values[i, rule[x]]
                for i in range(nt)
                for x in range(nx)
            )
            for rule in itertools.product(range(na), repeat=nx)
        )
        assert value(loss, prior, exp) == pytest.approx(oracle, abs=1e-12)


class TestValue:
    def test_identity_perfect(self):
        t = FiniteSpace.of_size(2, "t")
        assert value(zero_one_loss(t), uniform(t), identity_kernel(t)) == 0.0

    def test_uninformative_binary(self):
        t = FiniteSpace.of_size(2, "t")
        assert value(zero_one_loss(t), uniform(t), blind_kernel(t)) == pytest.approx(0.5)

    def test_bsc_error_rate(self):
        t = FiniteSpace.of_size(2, "t")
        got = value(zero_one_loss(t), uniform(t), bsc(0.1))
        assert got == pytest.approx(0.1, abs=1e-12)

    def test_bsc_matches_rule_enumeration(self):
        # brute force over the four deterministic rules on binary data
        t = FiniteSpace.of_size(2, "t")
        exp = bsc(0.1)
        loss = zero_one_loss(t)
        pi = uniform(t)
        risks = []
        for r00 in range(2):
            for r10 in range(2):
                m = np.zeros((2, 2))
                m[r00, 0] = 1
                m[r10, 1] = 1
                rule = MarkovKernel(exp.target, t, m)
                risks.append(bayes_risk(loss, pi, compose(rule, exp)))
        assert value(loss, pi, exp) == pytest.approx(min(risks), abs=1e-12)

    def test_duplicate_action_invariance(self):
        t = FiniteSpace.of_size(3, "t")
        a = FiniteSpace.of_size(2, "a")
        rng = np.random.default_rng(0)
        base = rng.uniform(-1, 1, size=(3, 2))
        padded = np.hstack([base, base[:, [1]]])
        pi = Distribution(t, rng.dirichlet(np.ones(3)))
        exp = MarkovKernel(t, FiniteSpace.of_size(4, "x"), rng.dirichlet(np.ones(4), size=3).T)
        v1 = value(LossMatrix(t, a, base), pi, exp)
        v2 = value(LossMatrix(t, FiniteSpace.of_size(3, "a"), padded), pi, exp)
        assert v1 == v2

    @settings(max_examples=40)
    @given(st.data(), st.floats(0.0, 3.0), st.floats(-2.0, 2.0))
    def test_scale_shift_equivariance(self, data, alpha, shift):
        loss = data.draw(strat.losses())
        prior = data.draw(strat.distributions(space=loss.theta))
        exp = data.draw(strat.kernels(source=loss.theta))
        scaled = LossMatrix(loss.theta, loss.actions, alpha * loss.values + shift)
        expect = alpha * value(loss, prior, exp) + shift
        assert value(scaled, prior, exp) == pytest.approx(expect, abs=1e-12)

    def test_bayes_decision_rule_attains_value(self):
        rng = np.random.default_rng(7)
        t = FiniteSpace.of_size(3, "t")
        x = FiniteSpace.of_size(4, "x")
        a = FiniteSpace.of_size(3, "a")
        exp = MarkovKernel(t, x, rng.dirichlet(np.ones(4), size=3).T)
        loss = LossMatrix(t, a, rng.uniform(-1, 1, size=(3, 3)))
        pi = Distribution(t, rng.dirichlet(np.ones(3)))
        rule = bayes_decision_rule(loss, pi, exp)
        assert bayes_risk(loss, pi, compose(rule, exp)) == pytest.approx(
            value(loss, pi, exp), abs=1e-12
        )


class TestRegret:
    def test_self_regret_zero(self):
        t = FiniteSpace.of_size(3, "t")
        p = Distribution(t, [0.2, 0.3, 0.5])
        assert regret(zero_one_loss(t), p, p) == 0.0

    def test_hand_value(self):
        t = FiniteSpace.of_size(2, "t")
        p = Distribution(t, [0.8, 0.2])
        q = Distribution(t, [0.3, 0.7])
        assert regret(zero_one_loss(t), p, q) == pytest.approx(0.6, abs=1e-15)

    def test_acts_for_q_binary_zero_one(self):
        # q's Bayes act is 0, which costs p 0.7 against p's best 0.3
        t = FiniteSpace.of_size(2, "t")
        p, q = Distribution(t, [0.3, 0.7]), Distribution(t, [0.8, 0.2])
        assert regret(zero_one_loss(t), p, q) == pytest.approx(0.4, abs=1e-15)

    def test_exact_tie_acts_low(self):
        # q ties both acts and act 0 is taken; act 1 would give p zero regret
        t = FiniteSpace.of_size(2, "t")
        p, q = Distribution(t, [0.2, 0.8]), Distribution(t, [0.5, 0.5])
        assert regret(zero_one_loss(t), p, q) == pytest.approx(0.6, abs=1e-15)

    def test_acts_for_q_cost_sensitive(self):
        # q's expected losses: act 0 costs 0.2*10 = 2, act 1 costs 0.8*1, so act 1;
        # for p act 0 costs 0.05*10 = 0.5 and act 1 costs 0.95
        t = FiniteSpace.of_size(2, "t")
        a = FiniteSpace.of_size(2, "a")
        loss = LossMatrix(t, a, [[0.0, 1.0], [10.0, 0.0]])
        p, q = Distribution(t, [0.95, 0.05]), Distribution(t, [0.8, 0.2])
        assert regret(loss, p, q) == pytest.approx(0.45, abs=1e-15)

    @settings(max_examples=200)
    @given(st.data())
    def test_nonnegative(self, data):
        loss = data.draw(strat.losses())
        p = data.draw(strat.distributions(space=loss.theta))
        q = data.draw(strat.distributions(space=loss.theta))
        assert regret(loss, p, q) >= -1e-12


class TestGaps:
    def test_identity_feature_no_gap(self):
        t = FiniteSpace.of_size(2, "t")
        exp = bsc(0.2)
        assert feature_gap(zero_one_loss(t), uniform(t), exp, identity_kernel(exp.target)) == 0.0

    def test_constant_feature_gap_is_information_gap(self):
        # the information gap: the value gained over deciding from the prior alone
        t = FiniteSpace.of_size(2, "t")
        exp = bsc(0.2)
        loss = zero_one_loss(t)
        pi = Distribution(t, [0.3, 0.7])
        gap = feature_gap(loss, pi, exp, blind_kernel(exp.target))
        assert gap == pytest.approx(information_gap(loss, pi, exp), abs=1e-12)

    def test_information_gap_uninformative_zero(self):
        t = FiniteSpace.of_size(3, "t")
        assert information_gap(zero_one_loss(t), uniform(t), blind_kernel(t)) == 0.0

    def test_information_gap_identity_binary(self):
        t = FiniteSpace.of_size(2, "t")
        assert information_gap(zero_one_loss(t), uniform(t), identity_kernel(t)) == pytest.approx(0.5)

    @settings(max_examples=80)
    @given(st.data())
    def test_feature_gap_nonnegative(self, data):
        loss = data.draw(strat.losses())
        prior = data.draw(strat.distributions(space=loss.theta))
        exp = data.draw(strat.kernels(source=loss.theta))
        enc = data.draw(strat.kernels(source=exp.target, target_prefix="z"))
        assert feature_gap(loss, prior, exp, enc) >= -1e-9

    def test_log_loss_grid_approaches_entropy(self):
        # actions form a grid of predicted distributions scored by -log2;
        # with a fully revealing experiment the gap tends to the entropy
        t = FiniteSpace.of_size(2, "t")
        pi = Distribution(t, [0.35, 0.65])
        target = entropy(pi)
        errs = []
        for grid_size in (50, 500):
            qs = np.linspace(1.0 / (grid_size + 1), grid_size / (grid_size + 1), grid_size)
            vals = -np.log2(np.stack([qs, 1 - qs]))  # [theta, action]
            loss = LossMatrix(t, FiniteSpace.of_size(grid_size, "a"), vals)
            errs.append(abs(information_gap(loss, pi, identity_kernel(t)) - target))
        assert errs[0] <= 0.05
        assert errs[1] < errs[0]
        assert errs[1] <= 0.005


class TestEntropies:
    def test_injective_encoder_zero_conditional(self):
        x = FiniteSpace.of_size(3)
        assert conditional_entropy(uniform(x), identity_kernel(x)) == pytest.approx(0.0, abs=1e-12)

    def test_uninformative_encoder_full_conditional(self):
        x = FiniteSpace.of_size(3)
        pi = Distribution(x, [0.2, 0.3, 0.5])
        assert conditional_entropy(pi, blind_kernel(x)) == pytest.approx(entropy(pi), abs=1e-12)

    def test_merge_pairs_one_bit(self):
        x = FiniteSpace.of_size(4)
        z = FiniteSpace.of_size(2, "z")
        merge = MarkovKernel(x, z, [[1, 1, 0, 0], [0, 0, 1, 1]])
        assert conditional_entropy(uniform(x), merge) == pytest.approx(1.0, abs=1e-12)
        assert mutual_information(uniform(x), merge) == pytest.approx(1.0, abs=1e-12)

    def test_mutual_information_uninformative_zero(self):
        x = FiniteSpace.of_size(4)
        pi = Distribution(x, [0.1, 0.2, 0.3, 0.4])
        assert mutual_information(pi, blind_kernel(x)) == pytest.approx(0.0, abs=1e-12)

    def test_mutual_information_identity_is_entropy(self):
        x = FiniteSpace.of_size(2)
        assert mutual_information(uniform(x), identity_kernel(x)) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=80)
    @given(st.data())
    def test_chain_rule(self, data):
        enc = data.draw(strat.kernels(target_prefix="z"))
        pi = data.draw(strat.distributions(space=enc.source))
        lhs = conditional_entropy(pi, enc)
        rhs = entropy(pi) - mutual_information(pi, enc)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @staticmethod
    def _sparse_instance(rng):
        """Prior and encoder with exact zeros, including a code no input reaches."""
        n, k = (int(v) for v in rng.integers(2, 9, size=2))
        mass = rng.random(n) * (rng.random(n) < 0.7)
        mass[rng.integers(n)] += 0.5
        enc = rng.random((k + 1, n)) * (rng.random((k + 1, n)) < 0.6)
        enc[k] = 0.0  # the last code is never used
        enc[rng.integers(k, size=n), np.arange(n)] += 0.5
        enc /= enc.sum(axis=0)
        x = FiniteSpace.of_size(n)
        pi = Distribution(x, mass / mass.sum())
        return pi, MarkovKernel(x, FiniteSpace.of_size(k + 1, "z"), enc)

    def test_agree_with_scipy_xlogy_on_zeros(self):
        xlogy = pytest.importorskip("scipy.special").xlogy
        ln2 = np.log(2.0)
        rng = np.random.default_rng(20)
        for _ in range(200):
            pi, enc = self._sparse_instance(rng)
            p = pi.mass
            jm = enc.matrix * p[None, :]
            pz = jm.sum(axis=1)
            refs = {
                "conditional": (xlogy(jm, pz[:, None]).sum() - xlogy(jm, jm).sum()) / ln2,
                "mutual": (xlogy(jm, jm).sum() - xlogy(jm, pz[:, None] * p[None, :]).sum()) / ln2,
            }
            got = {
                "conditional": conditional_entropy(pi, enc),
                "mutual": mutual_information(pi, enc),
            }
            for name, ref in refs.items():
                assert np.isfinite(got[name]), name
                assert abs(got[name] - ref) <= 1e-15, (name, got[name], ref)

    def test_mutual_information_survives_underflow(self):
        # pz * prior underflows to 0 on the rare input while the joint does not
        x = FiniteSpace.of_size(2)
        p = Distribution(x, [1e-200, 1.0])
        got = mutual_information(p, identity_kernel(x))
        assert np.isfinite(got)
        assert got == pytest.approx(entropy(p), rel=1e-12)
        assert got == pytest.approx(6.643856189774725e-198, rel=1e-12)

    def test_zero_mass_gives_exact_zero(self):
        x = FiniteSpace.of_size(3)
        point = Distribution(x, [0.0, 1.0, 0.0])
        assert conditional_entropy(point, blind_kernel(x)) == 0.0
        assert mutual_information(point, identity_kernel(x)) == 0.0

    def test_xlogy_helper_edge_values(self):
        xlogy = pytest.importorskip("scipy.special").xlogy
        x = np.array([0.0, 0.0, 1.0, 0.5, 2.0])
        y = np.array([0.0, 1.0, 0.0, 0.25, 3.0])
        np.testing.assert_array_equal(_xlogy(x, y), xlogy(x, y))
        assert _xlogy(x, y)[0] == 0.0

