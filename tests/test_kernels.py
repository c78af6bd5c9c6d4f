import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finexp import kernels
from finexp.decisions import LossMatrix
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

import strategies as strat
from strategies import blind_kernel, bsc, code_sites, identity_kernel


class TestConstruction:
    def test_space_needs_distinct_labels(self):
        with pytest.raises(ValueError, match="distinct"):
            FiniteSpace(("a", "a"))
        with pytest.raises(ValueError):
            FiniteSpace(())

    def test_distribution_rejects_bad_sum(self):
        x = FiniteSpace.of_size(2)
        with pytest.raises(ValueError, match="sums to"):
            Distribution(x, [0.5, 0.4])
        # README promises sums within 1e-9 of one
        with pytest.raises(ValueError, match="sums to"):
            Distribution(x, [0.5 + 2e-9, 0.5])

    def test_distribution_rejects_negative(self):
        x = FiniteSpace.of_size(2)
        with pytest.raises(ValueError, match="negative"):
            Distribution(x, [1.1, -0.1])

    def test_distribution_renormalizes_tiny_drift(self):
        x = FiniteSpace.of_size(2)
        d = Distribution(x, [0.5 + 3e-10, 0.5])
        assert d.mass.sum() == pytest.approx(1.0, abs=1e-12)
        d = Distribution(x, [0.5 + 5e-10, 0.5])
        assert d.mass.sum() == pytest.approx(1.0, abs=1e-12)
        k = MarkovKernel(x, x, [[1.0, 0.5 + 5e-10], [0.0, 0.5]])
        np.testing.assert_allclose(k.matrix.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_kernel_rejects_bad_column(self):
        x = FiniteSpace.of_size(2)
        with pytest.raises(ValueError, match="column 1"):
            MarkovKernel(x, x, [[1.0, 0.3], [0.0, 0.6]])
        with pytest.raises(ValueError, match="column 1"):
            MarkovKernel(x, x, [[1.0, 0.5 + 2e-9], [0.0, 0.5]])

    def test_kernel_shape_checked(self):
        x = FiniteSpace.of_size(2)
        y = FiniteSpace.of_size(3)
        with pytest.raises(ValueError, match="shape"):
            MarkovKernel(x, y, np.eye(2))

    def test_immutability(self):
        d = uniform(FiniteSpace.of_size(3))
        with pytest.raises(ValueError):
            d.mass[0] = 0.9

    @pytest.mark.parametrize("build, field, values", [
        # the first entry drifts from a sum of one, so construction divides it out
        (lambda v: Distribution(FiniteSpace.of_size(2), v), "mass", [0.5 + 5e-10, 0.5]),
        (lambda v: MarkovKernel(FiniteSpace.of_size(2), FiniteSpace.of_size(2), v), "matrix",
         [[1.0, 0.5 + 5e-10], [0.0, 0.5]]),
        (lambda v: LossMatrix(FiniteSpace.of_size(2), FiniteSpace.of_size(3), v), "values",
         [[0.0, 1.0, 2.0], [1.0, 0.0, -1.0]]),
    ], ids=["Distribution", "MarkovKernel", "LossMatrix"])
    def test_value_objects_freeze_a_copy(self, build, field, values):
        given = np.array(values)
        stored = getattr(build(given), field)
        # the caller's array stays writable and unchanged, renormalized or not
        assert given.flags.writeable
        np.testing.assert_array_equal(given, np.array(values))
        assert not np.shares_memory(stored, given)
        with pytest.raises(ValueError):
            stored[0] = 0.25
        # the stored array owns its data, so no writable array sits behind it
        assert stored.flags.owndata


class TestCompose:
    def test_identity_is_neutral(self):
        t = bsc(0.1)
        out = compose(identity_kernel(t.target), t)
        np.testing.assert_allclose(out.matrix, t.matrix)

    def test_uninformative_absorbs(self):
        t = bsc(0.2)
        out = compose(blind_kernel(t.target), t)
        np.testing.assert_allclose(out.matrix, blind_kernel(t.source).matrix)
        assert out.target == FiniteSpace(("*",))

    def test_swap_times_channel(self):
        # hand multiplication: [[0,1],[1,0]] @ [[0.9,0.2],[0.1,0.8]]
        x = FiniteSpace.of_size(2)
        swap = MarkovKernel(x, x, [[0, 1], [1, 0]])
        chan = MarkovKernel(x, x, [[0.9, 0.2], [0.1, 0.8]])
        np.testing.assert_allclose(compose(swap, chan).matrix, [[0.1, 0.8], [0.9, 0.2]])

    def test_mismatch_names_both_spaces(self):
        t = bsc(0.1)
        other = identity_kernel(FiniteSpace.of_size(3, "z"))
        with pytest.raises(SpaceMismatchError, match="z0"):
            compose(other, t)

    @settings(max_examples=60)
    @given(strat.kernel_chains(length=3))
    def test_associative(self, chain):
        k1, k2, k3 = chain
        left = compose(compose(k3, k2), k1)
        right = compose(k3, compose(k2, k1))
        np.testing.assert_allclose(left.matrix, right.matrix, atol=1e-12)


class TestPushforward:
    def test_identity(self):
        pi = Distribution(FiniteSpace.of_size(2), [0.3, 0.7])
        np.testing.assert_allclose(pushforward(identity_kernel(pi.space), pi).mass, pi.mass)

    def test_bsc_uniform_stays_uniform(self):
        t = bsc(0.1)
        out = pushforward(t, uniform(t.source))
        np.testing.assert_allclose(out.mass, [0.5, 0.5])

    def test_uninformative_gives_point(self):
        pi = Distribution(FiniteSpace.of_size(3), [0.2, 0.5, 0.3])
        out = pushforward(blind_kernel(pi.space), pi)
        np.testing.assert_allclose(out.mass, [1.0])

    @settings(max_examples=60)
    @given(st.data())
    def test_functorial(self, data):
        k1, k2 = data.draw(strat.kernel_chains(length=2))
        pi = data.draw(strat.distributions(space=k1.source))
        via_compose = pushforward(compose(k2, k1), pi)
        stepwise = pushforward(k2, pushforward(k1, pi))
        np.testing.assert_allclose(via_compose.mass, stepwise.mass, atol=1e-12)


class TestJoint:
    def test_identity_uniform_is_diagonal(self):
        x = FiniteSpace.of_size(2)
        j = identity_kernel(x).matrix * uniform(x).mass[None, :]
        np.testing.assert_allclose(j, np.diag([0.5, 0.5]))

    def test_bsc_table(self):
        j = bsc(0.1).matrix * uniform(FiniteSpace.of_size(2, "t")).mass[None, :]
        np.testing.assert_allclose(j, [[0.45, 0.05], [0.05, 0.45]])

    @settings(max_examples=60)
    @given(strat.experiments())
    def test_total_mass_one(self, pe):
        prior, exp = pe
        assert (exp.matrix * prior.mass[None, :]).sum() == pytest.approx(1.0, abs=1e-12)


class TestBayesInverse:
    def test_identity_uniform(self):
        x = FiniteSpace.of_size(2)
        inv = bayes_inverse(identity_kernel(x), uniform(x))
        np.testing.assert_allclose(inv.matrix, np.eye(2))

    def test_symmetric_channel_is_self_inverse(self):
        t = bsc(0.1)
        inv = bayes_inverse(t, uniform(t.source))
        np.testing.assert_allclose(inv.matrix, t.matrix)

    def test_zero_marginal_column_uniform(self):
        theta = FiniteSpace.of_size(3, "t")
        x = FiniteSpace.of_size(3, "x")
        never = MarkovKernel(theta, x, [[0.5, 0.5, 1.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
        inv = bayes_inverse(never, Distribution(theta, [0.5, 0.5, 0.0]))
        np.testing.assert_array_equal(inv.matrix[:, 2], np.full(3, 1.0 / 3))
        # the live columns are the posteriors, with no mass on the zero-prior hypothesis
        np.testing.assert_allclose(inv.matrix[:, :2], [[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]])

    def test_matches_per_column_loop(self):
        # reference: divide each joint row by its marginal, uniform where it is 0
        rng = np.random.default_rng(13)
        for _ in range(300):
            nt, nx = (int(v) for v in rng.integers(1, 7, size=2))
            m = rng.random((nx, nt)) * (rng.random((nx, nt)) < 0.5)
            m[rng.integers(nx, size=nt), np.arange(nt)] += 0.1
            mass = rng.random(nt) * (rng.random(nt) < 0.7)
            mass[rng.integers(nt)] += 0.1
            theta = FiniteSpace.of_size(nt, "t")
            k = MarkovKernel(theta, FiniteSpace.of_size(nx), m / m.sum(axis=0))
            p = Distribution(theta, mass / mass.sum())
            jm = k.matrix * p.mass[None, :]
            marginal = jm.sum(axis=1)
            ref = np.empty((nt, nx))
            for x in range(nx):
                if marginal[x] > 0:
                    ref[:, x] = jm[x, :] / marginal[x]
                else:
                    ref[:, x] = 1.0 / nt
            inv = bayes_inverse(k, p)
            np.testing.assert_array_equal(inv.matrix, ref)
            # every zero-marginal output gets the uniform column, exactly
            np.testing.assert_array_equal(inv.matrix[:, marginal == 0], 1.0 / nt)

    @settings(max_examples=80)
    @given(strat.experiments())
    def test_joint_consistency(self, pe):
        # reversing the kernel through the prior preserves the joint
        prior, exp = pe
        marginal = pushforward(exp, prior)
        forward = exp.matrix * prior.mass[None, :]
        backward = bayes_inverse(exp, prior).matrix * marginal.mass[None, :]
        np.testing.assert_allclose(backward, forward.T, atol=1e-9)


class TestVariationalDivergence:
    """Variational (l1) distance between distributions, summed inline."""

    @settings(max_examples=80)
    @given(st.data())
    def test_information_processing(self, data):
        # pushing two distributions through one kernel never separates them
        k = data.draw(strat.kernels())
        p = data.draw(strat.distributions(space=k.source))
        q = data.draw(strat.distributions(space=k.source))
        before = np.abs(p.mass - q.mass).sum()
        after = np.abs(pushforward(k, p).mass - pushforward(k, q).mass).sum()
        assert after <= before + 1e-12

    @settings(max_examples=80)
    @given(st.data())
    def test_mixture_identity(self, data):
        # l1 distance of joints equals the prior-weighted average of column distances
        t = data.draw(strat.kernels())
        u = data.draw(strat.kernels(source=t.source, target=t.target))
        prior = data.draw(strat.distributions(space=t.source))
        lhs = np.abs(t.matrix * prior.mass[None, :] - u.matrix * prior.mass[None, :]).sum()
        rhs = sum(
            prior.mass[i] * np.abs(t.column(i).mass - u.column(i).mass).sum()
            for i in range(t.source.size)
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


def _builds_space_mismatch(node):
    """A call of ``SpaceMismatchError``."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "SpaceMismatchError"


def test_only_check_space_raises_space_mismatch():
    # a raise counts when it names the error or a package function that builds one
    package = Path(kernels.__file__).parent
    builders = {site.rsplit(".", 1)[1] for site in code_sites(package, _builds_space_mismatch)}
    builders.add("SpaceMismatchError")

    def raises_space_mismatch(node):
        return isinstance(node, ast.Raise) and node.exc is not None and any(
            isinstance(name, ast.Name) and name.id in builders for name in ast.walk(node.exc)
        )

    assert set(code_sites(package, raises_space_mismatch)) == {"kernels._check_space"}


def test_only_freeze_write_protects_arrays():
    def sets_flags(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "setflags"

    assert code_sites(Path(kernels.__file__).parent, sets_flags) == ["kernels._freeze"]
