import itertools

import numpy as np
import pytest

from finexp.decisions import conditional_entropy
from finexp.deficiency import weighted_directed_deficiency
from finexp.kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    SpaceMismatchError,
    compose,
    pushforward,
    uniform,
)
from finexp.reconstruction import (
    FeatureChain,
    autoencode,
    generic_quality,
    stack,
)
from finexp.sampling import random_distribution, random_kernel

from strategies import blind_kernel, identity_kernel


def merge_example():
    x = FiniteSpace(("a", "b", "c"))
    z = FiniteSpace(("z0", "z1"))
    enc = MarkovKernel(x, z, [[1, 1, 0], [0, 0, 1]])
    return enc, Distribution(x, [0.5, 0.3, 0.2])


def reconstruction_error(encoder, decoder, prior):
    """Probability that decode(encode(x)) differs from x when x follows the prior."""
    return float(prior.mass @ (1.0 - np.diag(decoder.matrix @ encoder.matrix)))


class TestOptimalDecoder:
    """The most-probable-preimage decoder behind ``generic_quality``."""

    def test_identity_encoder(self):
        # exactly zero, also where an input of mass zero leaves its code unused;
        # the uniform prior is TestGenericQuality::test_injective_zero
        x = FiniteSpace.of_size(3)
        assert generic_quality(identity_kernel(x), Distribution(x, [0.6, 0.0, 0.4])) == 0.0

    def test_merge_beats_all_deterministic_decoders(self):
        enc, pi = merge_example()
        best = min(
            reconstruction_error(enc, MarkovKernel(enc.target, pi.space, np.eye(3)[:, [a, b]]), pi)
            for a in range(3)
            for b in range(3)
        )
        assert generic_quality(enc, pi) == pytest.approx(2 * best, abs=1e-12)
        assert best == pytest.approx(0.3, abs=1e-12)

    def test_one_code_keeps_the_mode(self):
        _, pi = merge_example()
        one = MarkovKernel(pi.space, FiniteSpace.of_size(1, "z"), np.ones((1, 3)))
        assert generic_quality(one, pi) == pytest.approx(2 * (1 - 0.5), abs=1e-12)

    def test_unused_code_changes_nothing(self):
        # code z1 is never used, so the quality is that of the encoder without it
        x = FiniteSpace.of_size(2)
        pi = Distribution(x, [0.3, 0.7])
        padded = MarkovKernel(x, FiniteSpace.of_size(2, "z"), [[1.0, 1.0], [0.0, 0.0]])
        one = MarkovKernel(x, FiniteSpace.of_size(1, "z"), [[1.0, 1.0]])
        assert generic_quality(padded, pi) == generic_quality(one, pi) == pytest.approx(0.6, abs=1e-12)


class TestReconstructionError:
    def test_perfect_roundtrip(self):
        # with a code per input, the optimal autoencoder's round trip is the identity
        pi = Distribution(FiniteSpace.of_size(4), [0.1, 0.4, 0.2, 0.3])
        res = autoencode(pi, 4)
        np.testing.assert_array_equal(compose(res.decoder, res.encoder).matrix, np.eye(4))

    def test_uninformative_uniform(self):
        for n in (2, 3, 5):
            x = FiniteSpace.of_size(n)
            assert generic_quality(blind_kernel(x), uniform(x)) == pytest.approx(2 * (n - 1) / n, abs=1e-12)


class TestGenericQuality:
    def test_injective_zero(self):
        x = FiniteSpace.of_size(3)
        assert generic_quality(identity_kernel(x), uniform(x)) == 0.0

    def test_merge_example(self):
        enc, pi = merge_example()
        assert generic_quality(enc, pi) == pytest.approx(0.6, abs=1e-12)

    def test_matches_lp_deficiency(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            nz = int(rng.integers(1, 7))
            pi = random_distribution(rng, FiniteSpace.of_size(n, "x"))
            enc = random_kernel(rng, pi.space, FiniteSpace.of_size(nz, "z"))
            lp = weighted_directed_deficiency(enc, identity_kernel(pi.space), pi).delta
            assert generic_quality(enc, pi) == pytest.approx(lp, abs=1e-6)


def top_k_quality(mass, k):
    """Twice the mass outside the k heaviest atoms."""
    return 2 * float(np.sort(mass)[::-1][k:].sum())


def brute_force_quality(mass, k):
    """Twice the least error over every deterministic encoder and decoder."""
    n = len(mass)
    decoders = np.array(list(itertools.product(range(n), repeat=k)))
    best = max(
        float(((decoders[:, list(f)] == np.arange(n)) * mass).sum(axis=1).max())
        for f in itertools.product(range(k), repeat=n)
    )
    return 2 * (1 - best)


def random_prior(rng, n):
    """A random prior, sometimes with a zero mass and a tie."""
    mass = rng.random(n)
    if n > 1 and rng.random() < 0.3:
        mass[1] = mass[0]
    if n > 1 and rng.random() < 0.3:
        mass[rng.integers(n)] = 0.0
    return Distribution(FiniteSpace.of_size(n, "x"), mass / mass.sum())


class TestAutoencode:
    def test_enough_codes_is_lossless(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5):
            pi = random_distribution(rng, FiniteSpace.of_size(n, "x"))
            for k in (n, n + 2):
                assert autoencode(pi, k).epsilon == 0.0

    def test_single_code_keeps_the_mode(self):
        pi = Distribution(FiniteSpace.of_size(3), [0.5, 0.3, 0.2])
        res = autoencode(pi, 1)
        assert res.epsilon == pytest.approx(2 * (1 - 0.5), abs=1e-12)

    def test_uniform_four_two_codes(self):
        res = autoencode(uniform(FiniteSpace.of_size(4)), 2)
        assert res.epsilon == pytest.approx(1.0, abs=1e-12)

    def test_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            pi = random_prior(rng, int(rng.integers(1, 9)))
            k = int(rng.integers(1, 11))
            res = autoencode(pi, k)
            assert res.epsilon == pytest.approx(top_k_quality(pi.mass, k), abs=1e-12)
            assert res.epsilon == pytest.approx(
                2 * reconstruction_error(res.encoder, res.decoder, pi), abs=1e-12
            )

    def test_epsilon_matches_generic_quality_of_encoder(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 5))
            pi = random_distribution(rng, FiniteSpace.of_size(n, "x"))
            res = autoencode(pi, k)
            assert res.epsilon == pytest.approx(generic_quality(res.encoder, pi), abs=1e-9)

    def test_deterministic(self):
        pi = Distribution(FiniteSpace.of_size(5), [0.4, 0.3, 0.15, 0.1, 0.05])
        a, b = autoencode(pi, 2), autoencode(pi, 2)
        np.testing.assert_array_equal(a.encoder.matrix, b.encoder.matrix)
        np.testing.assert_array_equal(a.decoder.matrix, b.decoder.matrix)

    def test_codes_in_order_of_mass(self):
        pi = Distribution(FiniteSpace.of_size(4), [0.2, 0.4, 0.2, 0.2])
        res = autoencode(pi, 6)
        # ties go to the lowest index; the codes beyond the four inputs decode to the mode
        np.testing.assert_array_equal(res.decoder.matrix.argmax(axis=0), [1, 0, 2, 3, 1, 1])
        np.testing.assert_array_equal(res.encoder.matrix.argmax(axis=0), [1, 0, 2, 3])

    def test_unkept_inputs_share_the_mode_code(self):
        pi = Distribution(FiniteSpace.of_size(5), [0.1, 0.3, 0.05, 0.4, 0.15])
        res = autoencode(pi, 2)
        np.testing.assert_array_equal(res.decoder.matrix.argmax(axis=0), [3, 1])
        np.testing.assert_array_equal(res.encoder.matrix.argmax(axis=0), [0, 1, 0, 0, 0])

    def test_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            pi = random_prior(rng, n)
            res = autoencode(pi, k)
            assert res.epsilon == pytest.approx(brute_force_quality(pi.mass, k), abs=1e-12)

    def test_at_the_label_cap(self):
        rng = np.random.default_rng(8)
        x = FiniteSpace.of_size(32, "x")
        for k in (1, 5, 16, 31):
            pi = random_distribution(rng, x)
            res = autoencode(pi, k)
            assert res.epsilon == pytest.approx(generic_quality(res.encoder, pi), abs=1e-6)
            lp = weighted_directed_deficiency(res.encoder, identity_kernel(x), pi).delta
            assert res.epsilon == pytest.approx(lp, abs=1e-6)

    def test_invalid_arguments(self):
        pi = uniform(FiniteSpace.of_size(3))
        with pytest.raises(ValueError):
            autoencode(pi, 0)


class TestStack:
    def test_full_width_layers_lossless(self):
        pi = Distribution(FiniteSpace.of_size(4), [0.4, 0.3, 0.2, 0.1])
        chain = stack(pi, [4])
        assert chain.layer_quality == (0.0,)
        assert chain.total_quality == pytest.approx(0.0, abs=1e-12)

    def test_uniform_four_two_one(self):
        chain = stack(uniform(FiniteSpace.of_size(4)), [2, 1])
        assert chain.layer_quality[0] == pytest.approx(1.0, abs=1e-12)
        # the second layer's optimum depends on the first-layer output prior
        mid = pushforward(chain.layers[0], uniform(FiniteSpace.of_size(4)))
        assert chain.layer_quality[1] == pytest.approx(2 * (1 - mid.mass.max()), abs=1e-12)
        assert chain.total_quality == pytest.approx(1.5, abs=1e-12)
        assert chain.total_quality <= sum(chain.layer_quality) + 1e-6

    def test_layer_priors_chain(self):
        # each layer is the optimal autoencoder of the previous layer's output prior
        rng = np.random.default_rng(5)
        pi = random_distribution(rng, FiniteSpace.of_size(6, "x"))
        chain = stack(pi, [4, 2])
        current = pi
        for layer, quality in zip(chain.layers, chain.layer_quality):
            res = autoencode(current, layer.target.size)
            np.testing.assert_array_equal(layer.matrix, res.encoder.matrix)
            assert quality == res.epsilon
            current = pushforward(layer, current)

    def test_sum_bound_random(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            pi = random_distribution(rng, FiniteSpace.of_size(n, "x"))
            k1 = int(rng.integers(2, n + 1))
            k2 = int(rng.integers(1, k1 + 1))
            chain = stack(pi, [k1, k2])
            assert chain.total_quality <= sum(chain.layer_quality) + 1e-6

    def test_min_size_law(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            pi = random_prior(rng, n)
            sizes = [int(k) for k in rng.integers(1, 9, size=int(rng.integers(1, 4)))]
            chain = stack(pi, sizes)
            assert chain.total_quality == pytest.approx(top_k_quality(pi.mass, min(sizes)), abs=1e-12)

    def test_min_size_law_against_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            pi = random_prior(rng, n)
            sizes = [int(k) for k in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
            best = brute_force_quality(pi.mass, min(sizes))
            assert stack(pi, sizes).total_quality == pytest.approx(best, abs=1e-12)

    def test_chain_checks_adjacent_layers(self):
        x, y = FiniteSpace.of_size(2), FiniteSpace.of_size(3, "y")
        with pytest.raises(SpaceMismatchError):
            FeatureChain(
                layers=(identity_kernel(x), identity_kernel(y)),
                layer_quality=(0.0, 0.0),
                total_quality=0.0,
            )

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            stack(uniform(FiniteSpace.of_size(3)), [])


class TestHellmanRaviv:
    def test_injective(self):
        x = FiniteSpace.of_size(3)
        assert generic_quality(identity_kernel(x), uniform(x)) == pytest.approx(0.0, abs=1e-12)
        assert conditional_entropy(uniform(x), identity_kernel(x)) == pytest.approx(0.0, abs=1e-12)

    def test_uninformative_binary(self):
        x = FiniteSpace.of_size(2)
        assert generic_quality(blind_kernel(x), uniform(x)) == pytest.approx(1.0, abs=1e-12)
        assert conditional_entropy(uniform(x), blind_kernel(x)) == pytest.approx(1.0, abs=1e-12)

    def test_random_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            nz = int(rng.integers(1, 8))
            pi = random_distribution(rng, FiniteSpace.of_size(n, "x"))
            enc = random_kernel(rng, pi.space, FiniteSpace.of_size(nz, "z"))
            assert generic_quality(enc, pi) <= conditional_entropy(pi, enc) + 1e-9
