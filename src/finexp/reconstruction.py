"""Reconstruction quality of encoders and optimal discrete autoencoders.

An encoder's generic quality is twice the smallest achievable probability of
failing to reconstruct the input from the code.  That number certifies the
encoder against every downstream task: whatever the loss, switching to the
encoded data costs at most quality times the loss's sup-norm.  The best
decoder sends each code to its most probable preimage, so the quality has a
closed form with no decoder built: each input is missed on every code whose
most probable preimage is another input.  The LP deficiency solver
reproduces it and the tests cross check.  The best autoencoder with k codes
has a closed form too: it keeps the k heaviest inputs, and its quality is
twice the mass outside them.

Public functions take validated objects and check their spaces; the
``_``-prefixed cores take plain arrays, so callers that have already
validated their inputs (the verify suites) skip the object layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    _check_space,
    _deterministic,
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

    def __post_init__(self) -> None:
        for lo, hi in zip(self.layers, self.layers[1:]):
            _check_space("chain: adjacent layers", lo.target, hi.source)


def generic_quality(encoder: MarkovKernel, prior: Distribution) -> float:
    """Twice the best achievable reconstruction error; in [0, 2]."""
    _check_space("generic_quality", encoder.source, prior.space)
    return float(_generic_quality(encoder.matrix, prior.mass))


def _generic_quality(encoder_matrix: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Array core of ``generic_quality``: encoder matrix and input masses.

    ``mass`` may be a stack shaped [..., input]; the result is shaped [...].
    Each input is missed with the encoder's mass on codes whose most
    probable preimage is another input.
    """
    best = np.argmax(encoder_matrix * mass[..., None, :], axis=-1)
    # summing, per input, the codes that decode elsewhere gives a
    # deterministic encoder an exact zero; a code of zero mass only puts
    # weight on inputs of mass zero, so where it decodes adds nothing
    missed = np.where(best[..., None] == np.arange(mass.shape[-1]), 0.0, encoder_matrix).sum(axis=-2)
    # a row times a column sums as the single-prior dot product does, bit for bit
    return 2.0 * (mass[..., None, :] @ missed[..., :, None])[..., 0, 0]


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
    # summing the unrecovered mass avoids 1 - (sum ~ 1) cancellation, so a
    # lossless code reports exactly zero
    missed = float(px[g[f] != np.arange(n)].sum())
    return AutoencoderResult(
        encoder=MarkovKernel(prior.space, latent, _deterministic(f, k)),
        decoder=MarkovKernel(latent, prior.space, _deterministic(g, n)),
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
    current = prior
    for k in sizes:
        result = autoencode(current, int(k))
        layers.append(result.encoder)
        qualities.append(result.epsilon)
        current = pushforward(result.encoder, current)
    composed = reduce(lambda inner, outer: compose(outer, inner), layers)
    return FeatureChain(
        layers=tuple(layers),
        layer_quality=tuple(qualities),
        total_quality=generic_quality(composed, prior),
    )
