import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from finexp.decisions import bayes_decision_rule, value
from finexp import deficiency
from finexp.deficiency import (
    _block,
    _weighted_batch,
    directed_deficiency,
    weighted_directed_deficiency,
)
from finexp.kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    SpaceMismatchError,
    compose,
    uniform,
)
from finexp.sampling import random_distribution, random_kernel, random_loss
from finexp.verify import _symmetric, run_suite

from strategies import bayes_risk, blind_kernel, code_sites, identity_kernel, symmetric_deficiency


def residuals(first, second, v):
    """Per-hypothesis l1 error of simulating ``second`` by ``v . first``, the reference for every gap."""
    return np.abs(second.matrix - v.matrix @ first.matrix).sum(axis=0)


def weighted_residual(first, second, prior, v):
    return float(prior.mass @ residuals(first, second, v))


def rng_instances(seed, trials, nt=(2, 4), nx=(2, 4), ny=(2, 4)):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        theta = FiniteSpace.of_size(int(rng.integers(nt[0], nt[1] + 1)), "t")
        x = FiniteSpace.of_size(int(rng.integers(nx[0], nx[1] + 1)), "x")
        y = FiniteSpace.of_size(int(rng.integers(ny[0], ny[1] + 1)), "y")
        yield rng, theta, random_kernel(rng, theta, x), random_kernel(rng, theta, y)


class TestWeightedDirected:
    def test_self_deficiency_zero(self):
        for rng, theta, t, _ in rng_instances(0, 5):
            res = weighted_directed_deficiency(t, t, random_distribution(rng, theta))
            assert res.delta <= 1e-8
            assert res.objective_gap <= 1e-7

    def test_constants_factor_through_anything(self):
        for rng, theta, t, _ in rng_instances(1, 5):
            res = weighted_directed_deficiency(t, blind_kernel(theta), random_distribution(rng, theta))
            assert res.delta <= 1e-8

    def test_uninformative_to_identity_is_one(self):
        # any constant decoder q earns 0.5*2(1-q0) + 0.5*2*q0 = 1
        theta = FiniteSpace.of_size(2, "t")
        res = weighted_directed_deficiency(blind_kernel(theta), identity_kernel(theta), uniform(theta))
        assert res.delta == pytest.approx(1.0, abs=1e-8)

    def test_uninformative_to_identity_exhaustive(self):
        # deterministic post-processings of the point experiment are the two constants
        theta = FiniteSpace.of_size(2, "t")
        point = blind_kernel(theta)
        pi = Distribution(theta, [0.4, 0.6])
        best = np.inf
        for target in range(2):
            m = np.zeros((2, 1))
            m[target, 0] = 1.0
            v = MarkovKernel(point.target, theta, m)
            best = min(best, weighted_residual(point, identity_kernel(theta), pi, v))
        res = weighted_directed_deficiency(point, identity_kernel(theta), pi)
        assert res.delta == pytest.approx(best, abs=1e-8)

    def test_witness_is_stochastic_and_consistent(self):
        for rng, theta, t, u in rng_instances(2, 10):
            pi = random_distribution(rng, theta)
            res = weighted_directed_deficiency(t, u, pi)
            sums = res.witness.matrix.sum(axis=0)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)
            assert np.all(res.witness.matrix >= 0)
            recomputed = weighted_residual(t, u, pi, res.witness)
            assert abs(recomputed - res.delta) <= 1e-6
            assert 0.0 <= res.delta <= 2.0

    def test_zero_mass_hypotheses_drop_out(self):
        rng = np.random.default_rng(3)
        theta = FiniteSpace.of_size(3, "t")
        t = random_kernel(rng, theta, FiniteSpace.of_size(3, "x"))
        u = random_kernel(rng, theta, FiniteSpace.of_size(3, "y"))
        pi = Distribution(theta, [0.5, 0.5, 0.0])
        res = weighted_directed_deficiency(t, u, pi)
        assert res.delta >= -1e-12
        assert abs(weighted_residual(t, u, pi, res.witness) - res.delta) <= 1e-6

    def test_space_mismatch(self):
        t = random_kernel(np.random.default_rng(0), FiniteSpace.of_size(2, "t"), FiniteSpace.of_size(2, "x"))
        u = random_kernel(np.random.default_rng(0), FiniteSpace.of_size(3, "s"), FiniteSpace.of_size(2, "y"))
        with pytest.raises(SpaceMismatchError):
            weighted_directed_deficiency(t, u, uniform(t.source))


class TestDirected:
    def test_self_zero(self):
        for _, _, t, _ in rng_instances(4, 5):
            assert directed_deficiency(t, t).delta <= 1e-8

    def test_uninformative_to_identity_is_one(self):
        theta = FiniteSpace.of_size(2, "t")
        res = directed_deficiency(blind_kernel(theta), identity_kernel(theta))
        assert res.delta == pytest.approx(1.0, abs=1e-8)

    def test_sup_dominates_weighted(self):
        for rng, theta, t, u in rng_instances(5, 5):
            sup = directed_deficiency(t, u).delta
            for _ in range(20):
                pi = random_distribution(rng, theta)
                assert weighted_directed_deficiency(t, u, pi).delta <= sup + 1e-6

    def test_witness_consistent(self):
        for _, _, t, u in rng_instances(6, 5):
            res = directed_deficiency(t, u)
            assert abs(residuals(t, u, res.witness).max() - res.delta) <= 1e-6


class TestWeighted:
    def test_symmetric(self):
        # the verify suites' batched reading, in either order, against one solve per direction
        for rng, theta, t, u in rng_instances(7, 5):
            pi = random_distribution(rng, theta)
            want = symmetric_deficiency(t, u, pi)
            for a, b in ((t, u), (u, t)):
                assert _symmetric([(a.matrix, b.matrix, pi.mass)]) == [pytest.approx(want, abs=1e-9)]

    def test_binary_id_vs_uninformative(self):
        theta = FiniteSpace.of_size(2, "t")
        assert symmetric_deficiency(identity_kernel(theta), blind_kernel(theta), uniform(theta)) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_triangle_small_sample(self):
        rng = np.random.default_rng(8)
        theta = FiniteSpace.of_size(3, "t")
        for _ in range(10):
            pi = random_distribution(rng, theta)
            ks = [random_kernel(rng, theta, FiniteSpace.of_size(int(rng.integers(2, 4)), f"s{i}_")) for i in range(3)]
            d12 = symmetric_deficiency(ks[0], ks[1], pi)
            d23 = symmetric_deficiency(ks[1], ks[2], pi)
            d13 = symmetric_deficiency(ks[0], ks[2], pi)
            assert d13 <= d12 + d23 + 1e-6


class TestFactorsThrough:
    def test_exact_factorization_recovered(self):
        for rng, theta, t, _ in rng_instances(9, 8):
            z = FiniteSpace.of_size(int(rng.integers(2, 4)), "z")
            noise = random_kernel(rng, t.target, z)
            u = compose(noise, t)
            res = weighted_directed_deficiency(t, u, uniform(theta))
            assert res.delta <= 1e-6
            resid = np.abs(u.matrix - res.witness.matrix @ t.matrix).sum(axis=0)
            assert resid.max() <= 1e-6

    def test_identity_does_not_factor_through_point(self):
        theta = FiniteSpace.of_size(2, "t")
        res = weighted_directed_deficiency(blind_kernel(theta), identity_kernel(theta), uniform(theta))
        assert res.delta > 1e-6
        assert res.delta == pytest.approx(1.0, abs=1e-8)

    def test_sufficient_merge_is_isomorphic(self):
        # experiment built as split-after-merge: output rows agree within
        # each merged fiber, so merging loses nothing
        rng = np.random.default_rng(10)
        theta = FiniteSpace.of_size(3, "t")
        y = FiniteSpace.of_size(2, "y")
        x = FiniteSpace.of_size(4, "x")
        fibers = {"x0": "y0", "x1": "y0", "x2": "y1", "x3": "y1"}
        split = np.zeros((4, 2))
        for xi, lab in enumerate(x.labels):
            split[xi, y.labels.index(fibers[lab])] = 0.5
        base = random_kernel(rng, theta, y)
        t = compose(MarkovKernel(y, x, split), base)
        merge = MarkovKernel(x, y, np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=float))
        merged = compose(merge, t)
        pi = uniform(theta)
        assert weighted_directed_deficiency(t, merged, pi).delta <= 1e-6
        assert weighted_directed_deficiency(merged, t, pi).delta <= 1e-6


class TestReductionConstruction:
    def test_transported_rule_risk_bound(self):
        # a rule for the simulated experiment transports through the witness
        # with risk overhead at most delta times the loss norm
        rng = np.random.default_rng(11)
        for _ in range(20):
            theta = FiniteSpace.of_size(int(rng.integers(2, 5)), "t")
            x = FiniteSpace.of_size(int(rng.integers(2, 5)), "x")
            y = FiniteSpace.of_size(int(rng.integers(2, 5)), "y")
            a = FiniteSpace.of_size(int(rng.integers(2, 4)), "a")
            t = random_kernel(rng, theta, x)
            u = random_kernel(rng, theta, y)
            pi = random_distribution(rng, theta)
            loss = random_loss(rng, theta, a)

            res = weighted_directed_deficiency(t, u, pi)
            d_u = bayes_decision_rule(loss, pi, u)
            risk_u = bayes_risk(loss, pi, compose(d_u, u))
            transported = compose(d_u, compose(res.witness, t))
            risk_t = bayes_risk(loss, pi, transported)
            assert risk_t <= risk_u + res.delta * np.abs(loss.values).max() + 1e-6


class TestRandomizationBound:
    def test_value_advantage_bounded(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            theta = FiniteSpace.of_size(int(rng.integers(2, 5)), "t")
            t = random_kernel(rng, theta, FiniteSpace.of_size(int(rng.integers(2, 5)), "x"))
            u = random_kernel(rng, theta, FiniteSpace.of_size(int(rng.integers(2, 5)), "y"))
            pi = random_distribution(rng, theta)
            delta = weighted_directed_deficiency(t, u, pi).delta
            for _ in range(8):
                loss = random_loss(rng, theta, FiniteSpace.of_size(int(rng.integers(2, 4)), "a"))
                assert value(loss, pi, t) <= value(loss, pi, u) + delta * np.abs(loss.values).max() + 1e-6


def reference_delta(first, second, prior=None):
    """The dense inequality-form LP: -s <= U - V T <= s, columns of V sum to 1.

    Solves the weighted program for a prior and the worst-case program
    (one extra bound t on every per-hypothesis sum of s) without one.
    """
    nx, ny, nt = first.target.size, second.target.size, first.source.size
    nv, ns = ny * nx, ny * nt
    block = np.kron(np.eye(ny), first.matrix.T)
    a_res = np.block([[-block, -np.eye(ns)], [block, -np.eye(ns)]])
    u = second.matrix.reshape(-1)
    b_res = np.concatenate([-u, u])
    extra = 0 if prior is not None else 1
    a_eq = np.hstack([np.kron(np.ones((1, ny)), np.eye(nx)), np.zeros((nx, ns + extra))])
    if prior is not None:
        c = np.concatenate([np.zeros(nv), np.tile(prior.mass, ny)])
        a_ub, b_ub = a_res, b_res
    else:
        c = np.concatenate([np.zeros(nv + ns), [1.0]])
        a_top = np.hstack([np.zeros((nt, nv)), np.kron(np.ones((1, ny)), np.eye(nt)), -np.ones((nt, 1))])
        a_ub = np.vstack([np.hstack([a_res, np.zeros((2 * ns, 1))]), a_top])
        b_ub = np.concatenate([b_res, np.zeros(nt)])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(nx), bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def reference_cases():
    """Seeded rectangular instances with sizes in 2..8, plus two edge cases."""
    cases = [
        (t, u, random_distribution(rng, theta))
        for rng, theta, t, u in rng_instances(13, 30, (2, 8), (2, 8), (2, 8))
    ]
    rng = np.random.default_rng(14)
    theta = FiniteSpace.of_size(5, "t")
    t = random_kernel(rng, theta, FiniteSpace.of_size(6, "x"))
    u = random_kernel(rng, theta, FiniteSpace.of_size(4, "y"))
    cases.append((t, u, Distribution(theta, [0.3, 0.0, 0.2, 0.4, 0.1])))
    # a garbling of t: delta is zero up to solver tolerance
    garbled = compose(random_kernel(rng, t.target, FiniteSpace.of_size(3, "z")), t)
    cases.append((t, garbled, random_distribution(rng, theta)))
    return cases


class TestMatchesInequalityReference:
    @pytest.mark.parametrize("variant", ["weighted", "sup"])
    def test_seeded_sweep(self, variant):
        deltas = []
        for t, u, pi in reference_cases():
            if variant == "weighted":
                res, ref = weighted_directed_deficiency(t, u, pi), reference_delta(t, u, pi)
            else:
                res, ref = directed_deficiency(t, u), reference_delta(t, u)
            assert abs(res.delta - max(0.0, ref)) <= 1e-9
            np.testing.assert_allclose(res.witness.matrix.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(res.witness.matrix >= 0)
            assert res.objective_gap <= 1e-9
            deltas.append(res.delta)
        assert deltas[-1] <= 1e-9  # the garbled pair
        assert min(deltas[:-1]) > 1e-3  # the random pairs are far from factoring


def _both_variants(t, u, pi):
    """(result, reference delta) for the weighted and the sup variant."""
    return [
        (weighted_directed_deficiency(t, u, pi), reference_delta(t, u, pi)),
        (directed_deficiency(t, u), reference_delta(t, u)),
    ]


class TestReferenceEdgeCases:
    def test_unproduced_input_gets_uniform_column(self):
        # no hypothesis produces x2, so column x2 of V is free in both programs
        rng = np.random.default_rng(15)
        theta = FiniteSpace.of_size(4, "t")
        x = FiniteSpace.of_size(5, "x")
        m = random_kernel(rng, theta, FiniteSpace.of_size(4, "x")).matrix
        t = MarkovKernel(theta, x, np.insert(m, 2, 0.0, axis=0))
        u = random_kernel(rng, theta, FiniteSpace.of_size(3, "y"))
        for res, ref in _both_variants(t, u, random_distribution(rng, theta)):
            assert abs(res.delta - max(0.0, ref)) <= 1e-9
            assert res.objective_gap <= 1e-9
            np.testing.assert_array_equal(res.witness.matrix[:, 2], np.full(3, 1.0 / 3))

    @pytest.mark.parametrize("sizes", [(12, 14, 13), (16, 12, 16), (14, 16, 12)])
    def test_larger_instances(self, sizes):
        nt, nx, ny = sizes
        rng = np.random.default_rng(sum(sizes))
        theta = FiniteSpace.of_size(nt, "t")
        t = random_kernel(rng, theta, FiniteSpace.of_size(nx, "x"))
        u = random_kernel(rng, theta, FiniteSpace.of_size(ny, "y"))
        for res, ref in _both_variants(t, u, random_distribution(rng, theta)):
            assert abs(res.delta - max(0.0, ref)) <= 1e-9
            assert res.objective_gap <= 1e-9
            np.testing.assert_allclose(res.witness.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_degenerate_pairs_stay_at_zero(self):
        # sparse Dirichlet(0.3) columns and priors, some masses near 1e-8:
        # self, garbled and uninformative-target pairs all factor exactly, so
        # delta keeps the self-deficiency bound; HiGHS may return a sup
        # objective a hair below 0, which must not reach the caller
        rng = np.random.default_rng(16)
        deltas = []
        for _ in range(50):
            theta = FiniteSpace.of_size(int(rng.integers(2, 9)), "t")
            x = FiniteSpace.of_size(int(rng.integers(2, 9)), "x")
            z = FiniteSpace.of_size(int(rng.integers(2, 9)), "z")
            t = MarkovKernel(theta, x, rng.dirichlet(np.full(x.size, 0.3), size=theta.size).T)
            noise = MarkovKernel(x, z, rng.dirichlet(np.full(z.size, 0.3), size=x.size).T)
            pi = Distribution(theta, rng.dirichlet(np.full(theta.size, 0.3)))
            for u in (t, compose(noise, t), blind_kernel(theta)):
                deltas += [weighted_directed_deficiency(t, u, pi).delta, directed_deficiency(t, u).delta]
        assert min(deltas) >= 0.0
        assert max(deltas) <= 1e-8

    @pytest.mark.parametrize("n", [16, 24])
    def test_sup_at_interior_point_sizes(self, n):
        # the sup primal is solved by interior point with crossover: at these
        # sizes it must still give the simplex optimum, a stochastic witness
        # and, called twice, the same bytes
        rng = np.random.default_rng(100 + n)
        theta = FiniteSpace.of_size(n, "t")
        for _ in range(2):
            t = random_kernel(rng, theta, FiniteSpace.of_size(n, "x"))
            u = random_kernel(rng, theta, FiniteSpace.of_size(n, "y"))
            res, again = directed_deficiency(t, u), directed_deficiency(t, u)
            assert abs(res.delta - max(0.0, reference_delta(t, u))) <= 1e-9
            np.testing.assert_allclose(res.witness.matrix.sum(axis=0), 1.0, rtol=0, atol=1e-12)
            assert res.objective_gap <= 1e-9
            assert again.delta == res.delta
            assert again.witness.matrix.tobytes() == res.witness.matrix.tobytes()

    def test_degenerate_sup_pairs_at_interior_point_sizes(self):
        # self and garbled Dirichlet(0.3) pairs factor exactly, so the
        # interior-point solve must land on delta = 0 up to the same bound
        rng = np.random.default_rng(24)
        deltas = []
        for n in (16, 24, 32):
            theta, x = FiniteSpace.of_size(n, "t"), FiniteSpace.of_size(n, "x")
            for _ in range(2):
                z = FiniteSpace.of_size(int(rng.integers(2, n + 1)), "z")
                t = MarkovKernel(theta, x, rng.dirichlet(np.full(n, 0.3), size=n).T)
                noise = MarkovKernel(x, z, rng.dirichlet(np.full(z.size, 0.3), size=n).T)
                for u in (t, compose(noise, t)):
                    deltas.append(directed_deficiency(t, u).delta)
        assert min(deltas) >= 0.0
        assert max(deltas) <= 1e-8


def test_sup_solves_by_interior_point_and_weighted_by_simplex(linprog_calls):
    _, theta, t, u = next(rng_instances(25, 1))
    directed_deficiency(t, u)
    weighted_directed_deficiency(t, u, uniform(theta))
    assert [call["method"] for call in linprog_calls] == ["highs-ipm", "highs"]
    assert_sparse_matrices(linprog_calls)


def assert_sparse_matrices(calls):
    """Every constraint matrix handed to linprog is a scipy sparse array."""
    from scipy.sparse import sparray

    for call in calls:
        assert isinstance(call["A_ub"], sparray)
        assert call["A_eq"] is None or isinstance(call["A_eq"], sparray)


def test_block_holds_the_nonzero_entries_of_the_dense_layout():
    rng = np.random.default_rng(17)
    theta, x, y = FiniteSpace.of_size(4, "t"), FiniteSpace.of_size(5, "x"), FiniteSpace.of_size(3, "y")
    m = rng.dirichlet(np.ones(x.size), size=theta.size).T
    m[1:3, 0] = 0.0
    m[:, 2] = np.eye(x.size)[4]
    first = MarkovKernel(theta, x, m / m.sum(axis=0)).matrix
    # the entries of V T, then the column sums of V
    dense = [np.kron(np.eye(y.size), first.T), np.kron(np.ones((1, y.size)), np.eye(x.size))]
    parts = _block(first, y.size)
    assert len(parts) == 2
    for (rows, cols, data), want in zip(parts, dense):
        got = np.zeros(want.shape)
        np.add.at(got, (rows, cols), data)
        np.testing.assert_array_equal(got, want)
        # no stored zeros: the solver gets exactly the nonzero entries
        assert np.all(data != 0) and data.size == np.count_nonzero(want)


def _mixed_problems():
    """(first, second, prior, degenerate) with sizes 1-7 and one n = 32 problem in the middle.

    Covers zero prior masses, deterministic kernels, an input no hypothesis
    produces, and Dirichlet(0.3) self and garbled pairs, which factor exactly.
    """
    rng = np.random.default_rng(20)
    out = []
    for i in range(36):
        nt, nx, ny = (int(v) for v in rng.integers(1, 8, size=3))
        theta = FiniteSpace.of_size(nt, "t")
        x, y = FiniteSpace.of_size(nx, "x"), FiniteSpace.of_size(ny, "y")
        if i % 4 == 0:
            # deterministic kernels: each column a point mass at a random output
            t, u = (
                MarkovKernel(theta, space, np.eye(space.size)[rng.integers(0, space.size, size=nt)].T)
                for space in (x, y)
            )
        else:
            t, u = random_kernel(rng, theta, x), random_kernel(rng, theta, y)
        mass = rng.dirichlet(np.ones(nt))
        if i % 3 == 0 and nt > 1:
            mass[rng.integers(0, nt, size=nt - 1)] = 0.0
            mass /= mass.sum()
        out.append((t, u, Distribution(theta, mass), False))
        if i == 17:
            big = FiniteSpace.of_size(32, "t")
            out.append((random_kernel(rng, big, FiniteSpace.of_size(32, "x")),
                        random_kernel(rng, big, FiniteSpace.of_size(32, "y")), random_distribution(rng, big), False))
    theta = FiniteSpace.of_size(4, "t")
    m = random_kernel(rng, theta, FiniteSpace.of_size(4, "x")).matrix
    unproduced = MarkovKernel(theta, FiniteSpace.of_size(5, "x"), np.insert(m, 2, 0.0, axis=0))
    out.insert(5, (unproduced, random_kernel(rng, theta, FiniteSpace.of_size(3, "y")), random_distribution(rng, theta), False))
    for _ in range(6):
        theta = FiniteSpace.of_size(int(rng.integers(2, 7)), "t")
        x, z = FiniteSpace.of_size(int(rng.integers(2, 7)), "x"), FiniteSpace.of_size(int(rng.integers(2, 7)), "z")
        t = MarkovKernel(theta, x, rng.dirichlet(np.full(x.size, 0.3), size=theta.size).T)
        noise = MarkovKernel(x, z, rng.dirichlet(np.full(z.size, 0.3), size=x.size).T)
        pi = Distribution(theta, rng.dirichlet(np.full(theta.size, 0.3)))
        out += [(t, t, pi, True), (t, compose(noise, t), pi, True)]
    return out


def test_weighted_batch_matches_single_solves(linprog_calls):
    problems = _mixed_problems()
    singles = [weighted_directed_deficiency(t, u, pi) for t, u, pi, _ in problems]
    del linprog_calls[:]
    batch = _weighted_batch((t.matrix, u.matrix, pi.mass) for t, u, pi, _ in problems)
    assert len(batch) == len(problems)
    # a few groups of small problems within the cap on stacked rows, and the n = 32 problem alone
    assert len(linprog_calls) < len(problems) // 4
    shapes = [call["A_ub"].shape for call in linprog_calls]
    assert [(r, c) for r, c in shapes if r > deficiency._BATCH_ROWS] == [(1024, 1056)]
    assert_sparse_matrices(linprog_calls)
    for (t, u, pi, degenerate), (delta, v), single in zip(problems, batch, singles):
        assert v.shape == (u.target.size, t.target.size)
        assert abs(delta - single.delta) <= 1e-12
        witness = deficiency._witness_kernel(v, t, u)
        np.testing.assert_allclose(witness.matrix.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(witness.matrix >= 0)
        assert abs(weighted_residual(t, u, pi, witness) - delta) <= 1e-9
        if degenerate:
            assert delta <= 1e-8


def test_weighted_batch_splits_at_the_row_cap(linprog_calls):
    # a 4 x 4 problem has 16 dual rows, so cap // 16 of them fill one LP exactly
    cap = deficiency._BATCH_ROWS
    assert cap % 16 == 0
    rng = np.random.default_rng(26)
    theta = FiniteSpace.of_size(3, "t")
    small = [(random_kernel(rng, theta, FiniteSpace.of_size(4, "x")),
              random_kernel(rng, theta, FiniteSpace.of_size(4, "y")),
              random_distribution(rng, theta)) for _ in range(cap // 16 + 1)]
    # 24 x 24 is 576 rows, over the cap on its own
    big = (random_kernel(rng, theta, FiniteSpace.of_size(24, "x")),
           random_kernel(rng, theta, FiniteSpace.of_size(24, "y")), random_distribution(rng, theta))
    cases = [
        (small[:-1], [cap]),
        (small, [cap, 16]),
        ([small[0], big, small[1]], [16, 576, 16]),
    ]
    for problems, rows in cases:
        singles = [weighted_directed_deficiency(*p).delta for p in problems]
        del linprog_calls[:]
        batch = _weighted_batch([(t.matrix, u.matrix, pi.mass) for t, u, pi in problems])
        assert [call["A_ub"].shape[0] for call in linprog_calls] == rows
        # input order: each delta is its own problem's
        assert len(batch) == len(problems)
        for (t, u, _), (delta, v), single in zip(problems, batch, singles):
            assert v.shape == (u.target.size, t.target.size)
            assert abs(delta - single) <= 1e-12
        assert len({round(d, 9) for d in singles}) == len(problems)


def test_objective_gap_is_each_variants_own_residual():
    # unequal prior masses, so the weighted residual of a witness is not its worst case
    gaps = []
    for rng, theta, t, u in rng_instances(27, 10):
        pi = Distribution(theta, rng.dirichlet(np.full(theta.size, 0.5)))
        weighted, sup = weighted_directed_deficiency(t, u, pi), directed_deficiency(t, u)
        norms = residuals(t, u, weighted.witness)
        assert weighted.objective_gap == pytest.approx(abs(float(pi.mass @ norms) - weighted.delta), rel=0, abs=1e-15)
        assert sup.objective_gap == pytest.approx(abs(float(residuals(t, u, sup.witness).max()) - sup.delta),
                                                  rel=0, abs=1e-15)
        gaps.append(abs(float(norms.max()) - weighted.delta))
    # the worst case of the weighted witness is far from its delta, so a gap read at the wrong residual shows
    assert max(gaps) > 1e-3


def _imports_scipy(node):
    """An import of scipy or of one of its modules."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] == "scipy" for name in names)


def test_scipy_is_imported_only_in_solve():
    # test_only_lp_solves_load_scipy checks when scipy loads; this checks that one function owns the import
    assert sorted(set(code_sites(Path(deficiency.__file__).parent, _imports_scipy))) == ["deficiency._solve"]


def test_public_functions_check_spaces():
    rng = np.random.default_rng(21)
    theta, other = FiniteSpace.of_size(2, "t"), FiniteSpace.of_size(3, "s")
    t = random_kernel(rng, theta, FiniteSpace.of_size(2, "x"))
    alien = random_kernel(rng, other, t.target)
    with pytest.raises(SpaceMismatchError, match="prior"):
        weighted_directed_deficiency(t, t, uniform(other))
    with pytest.raises(SpaceMismatchError, match="share hypotheses"):
        weighted_directed_deficiency(t, alien, uniform(theta))
    with pytest.raises(SpaceMismatchError, match="share hypotheses"):
        directed_deficiency(t, alien)
    assert _weighted_batch([]) == []


LP_SUITES = ["randomization", "value_gap_bound", "binary_cost_sweep", "encoder_shift_bound",
             "quality_certificate", "triangle", "oracle_generic"]


def test_witness_built_only_where_returned(monkeypatch):
    def refuse(*args):
        raise AssertionError("a witness kernel was built for a solve that returns none")

    monkeypatch.setattr(deficiency, "_witness_kernel", refuse)
    for name in LP_SUITES:
        assert run_suite(name, trials=5, seed=0, max_dim=4).checks > 0


def test_single_weighted_solve_makes_one_lp_call(linprog_calls):
    _, theta, t, u = next(rng_instances(22, 1))
    weighted_directed_deficiency(t, u, uniform(theta))
    assert len(linprog_calls) == 1
