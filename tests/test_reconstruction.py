import itertools

import numpy as np
import pytest

from finexp.deficiency import weighted_directed_deficiency
from finexp.kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    SpaceMismatchError,
    compose,
    deterministic,
    identity,
    pushforward,
    uniform,
    uninformative,
)
from finexp.reconstruction import (
    FeatureChain,
    autoencode,
    generic_quality,
    hellman_raviv_check,
    optimal_decoder,
    reconstruction_error,
    stack,
)
from finexp.sampling import random_distribution, random_kernel


def merge_example():
    x = FiniteSpace(("a", "b", "c"))
    z = FiniteSpace(("z0", "z1"))
    enc = deterministic(x, z, {"a": "z0", "b": "z0", "c": "z1"})
    return enc, Distribution(x, [0.5, 0.3, 0.2])


class TestOptimalDecoder:
    def test_identity_encoder(self):
        x = FiniteSpace.of_size(3)
        dec = optimal_decoder(identity(x), uniform(x))
        np.testing.assert_allclose(dec.matrix, np.eye(3))

    def test_merge_decodes_heaviest(self):
        enc, pi = merge_example()
        dec = optimal_decoder(enc, pi)
        assert pi.space.labels[int(np.argmax(dec.matrix[:, 0]))] == "a"
        assert pi.space.labels[int(np.argmax(dec.matrix[:, 1]))] == "c"

    def test_merge_beats_all_deterministic_decoders(self):
        enc, pi = merge_example()
        best = min(
            reconstruction_error(
                enc,
                deterministic(enc.target, pi.space, {"z0": a, "z1": b}),
                pi,
            )
            for a in pi.space.labels
            for b in pi.space.labels
        )
        got = reconstruction_error(enc, optimal_decoder(enc, pi), pi)
        assert got == pytest.approx(best, abs=1e-12)
        assert got == pytest.approx(0.3, abs=1e-12)

    def test_uninformative_encoder_decodes_to_mode(self):
        _, pi = merge_example()
        dec = optimal_decoder(uninformative(pi.space), pi)
        assert pi.space.labels[int(np.argmax(dec.matrix[:, 0]))] == "a"

    def test_zero_mass_code_decodes_to_mode(self):
        x = FiniteSpace.of_size(2)
        z = FiniteSpace.of_size(2, "z")
        enc = MarkovKernel(x, z, [[1, 1], [0, 0]])  # code z1 never used
        pi = Distribution(x, [0.3, 0.7])
        dec = optimal_decoder(enc, pi)
        assert int(np.argmax(dec.matrix[:, 1])) == 1  # the mode x1


class TestReconstructionError:
    def test_perfect_roundtrip(self):
        x = FiniteSpace.of_size(4)
        assert reconstruction_error(identity(x), identity(x), uniform(x)) == 0.0

    def test_uninformative_uniform(self):
        for n in (2, 3, 5):
            x = FiniteSpace.of_size(n)
            enc = uninformative(x)
            err = reconstruction_error(enc, optimal_decoder(enc, uniform(x)), uniform(x))
            assert err == pytest.approx((n - 1) / n, abs=1e-12)


class TestGenericQuality:
    def test_injective_zero(self):
        x = FiniteSpace.of_size(3)
        assert generic_quality(identity(x), uniform(x)) == 0.0

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
            lp = weighted_directed_deficiency(enc, identity(pi.space), pi).delta
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
            lp = weighted_directed_deficiency(res.encoder, identity(x), pi).delta
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
        mid = chain.layer_priors[0]
        assert chain.layer_quality[1] == pytest.approx(2 * (1 - mid.mass.max()), abs=1e-12)
        assert chain.total_quality == pytest.approx(1.5, abs=1e-12)
        assert chain.total_quality <= sum(chain.layer_quality) + 1e-6

    def test_layer_priors_chain(self):
        rng = np.random.default_rng(5)
        pi = random_distribution(rng, FiniteSpace.of_size(6, "x"))
        chain = stack(pi, [4, 2])
        current = pi
        for layer, layer_prior in zip(chain.layers, chain.layer_priors):
            current = pushforward(layer, current)
            np.testing.assert_allclose(current.mass, layer_prior.mass)

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
                layers=(identity(x), identity(y)),
                layer_quality=(0.0, 0.0),
                total_quality=0.0,
                layer_priors=(uniform(x), uniform(y)),
            )

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            stack(uniform(FiniteSpace.of_size(3)), [])


class TestHellmanRaviv:
    def test_injective(self):
        x = FiniteSpace.of_size(3)
        eps, h, ok = hellman_raviv_check(identity(x), uniform(x))
        assert eps == pytest.approx(0.0, abs=1e-12)
        assert h == pytest.approx(0.0, abs=1e-12)
        assert ok

    def test_uninformative_binary(self):
        x = FiniteSpace.of_size(2)
        eps, h, ok = hellman_raviv_check(uninformative(x), uniform(x))
        assert eps == pytest.approx(1.0, abs=1e-12)
        assert h == pytest.approx(1.0, abs=1e-12)
        assert ok

    def test_random_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            nz = int(rng.integers(1, 8))
            pi = random_distribution(rng, FiniteSpace.of_size(n, "x"))
            enc = random_kernel(rng, pi.space, FiniteSpace.of_size(nz, "z"))
            assert hellman_raviv_check(enc, pi).holds
