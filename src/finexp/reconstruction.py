"""Reconstruction quality of encoders and optimal discrete autoencoders.

An encoder's generic quality is twice the smallest achievable probability of
failing to reconstruct the input from the code.  That number certifies the
encoder against every downstream task: whatever the loss, switching to the
encoded data costs at most quality times the loss's sup-norm.  The quality
of the best decoder has a closed form (decode each code to its most probable
preimage), which the LP deficiency solver reproduces and the tests cross
check.  The best autoencoder with k codes has one too: it keeps the k
heaviest inputs, and its quality is twice the mass outside them.

Public functions take validated objects and check their spaces; the
``_``-prefixed cores take plain arrays, so callers that have already
validated their inputs (the verify suites) skip the object layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .decisions import conditional_entropy
from .kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    _mismatch,
    compose,
    pushforward,
)


@dataclass(frozen=True, eq=False)
class AutoencoderResult:
    """Optimal encoder/decoder pair and its quality."""

    encoder: MarkovKernel
    decoder: MarkovKernel
    epsilon: float
    #: always 1, since the closed form has no restarts; perfbench's traced run reads it
    restarts_used = 1


@dataclass(frozen=True, eq=False)
class FeatureChain:
    """Stacked encoders with per-layer and end-to-end quality bounds."""

    layers: tuple[MarkovKernel, ...]
    layer_quality: tuple[float, ...]
    total_quality: float
    layer_priors: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        for lo, hi in zip(self.layers, self.layers[1:]):
            if hi.source != lo.target:
                raise _mismatch("chain: adjacent layers", lo.target, hi.source)


class HellmanRavivCheck(NamedTuple):
    epsilon: float
    conditional_entropy_bits: float
    holds: bool


def optimal_decoder(encoder: MarkovKernel, prior: Distribution) -> MarkovKernel:
    """Most-probable-preimage decoder; codes with zero mass decode to the prior mode."""
    if prior.space != encoder.source:
        raise _mismatch("optimal_decoder", encoder.source, prior.space)
    return MarkovKernel(encoder.target, encoder.source, _decoder(encoder.matrix, prior.mass))


def _decoder(encoder_matrix: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Array core of ``optimal_decoder``: the decoder's matrix."""
    scores = encoder_matrix * mass[None, :]
    best = np.argmax(scores, axis=1)
    best[scores.sum(axis=1) <= 0] = int(np.argmax(mass))
    nz, nx = encoder_matrix.shape
    m = np.zeros((nx, nz))
    m[best, np.arange(nz)] = 1.0
    return m


def reconstruction_error(
    encoder: MarkovKernel, decoder: MarkovKernel, prior: Distribution
) -> float:
    """Probability that decode(encode(x)) differs from x when x follows the prior."""
    if prior.space != encoder.source:
        raise _mismatch("reconstruction_error", encoder.source, prior.space)
    roundtrip = compose(decoder, encoder)
    return _missed_mass(roundtrip.matrix.copy(), prior.mass)


def _missed_mass(roundtrip: np.ndarray, mass: np.ndarray) -> float:
    """Mass sent off the diagonal by a round-trip matrix; zeroes its diagonal in place."""
    np.fill_diagonal(roundtrip, 0.0)
    return float(mass @ roundtrip.sum(axis=0))


def generic_quality(encoder: MarkovKernel, prior: Distribution) -> float:
    """Twice the best achievable reconstruction error; in [0, 2]."""
    if prior.space != encoder.source:
        raise _mismatch("optimal_decoder", encoder.source, prior.space)
    return _generic_quality(encoder.matrix, prior.mass)


def _generic_quality(encoder_matrix: np.ndarray, mass: np.ndarray) -> float:
    """Array core of ``generic_quality``: encoder matrix and input masses."""
    return 2.0 * _missed_mass(_decoder(encoder_matrix, mass) @ encoder_matrix, mass)


def _encoder_sweep(g: np.ndarray, n: int) -> np.ndarray:
    """Best deterministic encoder for a decoder ``g`` (code -> input).

    Each input goes to the first code that decodes back to it; no code
    recovers any other input, so those go to code 0.
    """
    f = np.zeros(n, dtype=int)
    kept, first = np.unique(g, return_index=True)
    f[kept] = first
    return f


def autoencode(prior: Distribution, latent_size: int) -> AutoencoderResult:
    """The optimal deterministic autoencoder with ``latent_size`` codes, in closed form.

    An input is recovered only if some code decodes to it, so at most k
    inputs are recovered, and the best success probability is the mass of
    the k heaviest atoms.  Coding those one-to-one attains it, and
    stochastic pairs cannot do better, since the success probability is
    linear in the encoder and in the decoder.  Hence epsilon = 2 * (mass
    outside the k heaviest atoms).

    Code z decodes to the z-th heaviest atom, ties going to the lowest
    index; codes beyond the input size decode to the heaviest atom.  Every
    input no code decodes to goes to code 0, the heaviest atom's code.
    """
    if latent_size < 1:
        raise ValueError("latent_size must be at least 1")
    px = prior.mass
    n, k = px.size, latent_size
    order = np.argsort(-px, kind="stable")
    g = np.full(k, order[0])
    g[:n] = order[:k]
    f = _encoder_sweep(g, n)

    latent = FiniteSpace.of_size(k, prefix="z")
    enc = np.zeros((k, n))
    enc[f, np.arange(n)] = 1.0
    dec = np.zeros((n, k))
    dec[g, np.arange(k)] = 1.0
    # summing the unrecovered mass avoids 1 - (sum ~ 1) cancellation, so a
    # lossless code reports exactly zero
    missed = float(px[g[f] != np.arange(n)].sum())
    return AutoencoderResult(
        encoder=MarkovKernel(prior.space, latent, enc),
        decoder=MarkovKernel(latent, prior.space, dec),
        epsilon=2.0 * missed,
    )


def stack(prior: Distribution, sizes: list[int] | tuple[int, ...]) -> FeatureChain:
    """Greedy layerwise training: each layer autoencodes the previous layer's output prior.

    The end-to-end quality of the composed encoder never exceeds the sum of
    the per-layer qualities, so a deep code built this way inherits an
    additive certificate from its layers.  Each layer keeps its heaviest
    atoms on codes in order of mass and merges the rest into code 0, which
    stays the heaviest code, so the next layer keeps the same atoms in the
    same order: the composed quality is the one-layer optimum at the
    smallest size, 2 * (mass outside the min(sizes) heaviest atoms).
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    layers: list[MarkovKernel] = []
    qualities: list[float] = []
    priors: list[Distribution] = []
    current = prior
    for k in sizes:
        result = autoencode(current, int(k))
        layers.append(result.encoder)
        qualities.append(result.epsilon)
        current = pushforward(result.encoder, current)
        priors.append(current)
    composed = reduce(lambda inner, outer: compose(outer, inner), layers)
    return FeatureChain(
        layers=tuple(layers),
        layer_quality=tuple(qualities),
        total_quality=generic_quality(composed, prior),
        layer_priors=tuple(priors),
    )


def hellman_raviv_check(encoder: MarkovKernel, prior: Distribution) -> HellmanRavivCheck:
    """Reconstruction quality against its conditional-entropy upper bound (bits)."""
    eps = generic_quality(encoder, prior)
    h = conditional_entropy(prior, encoder)
    return HellmanRavivCheck(eps, h, eps <= h + 1e-9)
