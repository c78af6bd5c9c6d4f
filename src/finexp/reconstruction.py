"""Reconstruction quality of encoders and discrete autoencoder training.

An encoder's generic quality is twice the smallest achievable probability of
failing to reconstruct the input from the code.  That number certifies the
encoder against every downstream task: whatever the loss, switching to the
encoded data costs at most quality times the loss's sup-norm.  The quality
of the best decoder has a closed form (decode each code to its most probable
preimage), which the LP deficiency solver reproduces and the tests cross
check.

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
    """Trained encoder/decoder pair with its quality and optimization trace."""

    encoder: MarkovKernel
    decoder: MarkovKernel
    epsilon: float
    trace: tuple[float, ...]
    restarts_used: int
    seed: int


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
        bound = sum(self.layer_quality)
        if self.total_quality > bound + 1e-6:
            raise ValueError(
                f"composed quality {self.total_quality} exceeds layer-sum bound {bound}"
            )


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


def _map_decode(f: np.ndarray, px: np.ndarray, k: int) -> np.ndarray:
    """Best decoder for a deterministic encoder: heaviest member of each fiber."""
    g = np.full(k, int(np.argmax(px)))
    for z in range(k):
        members = np.flatnonzero(f == z)
        if members.size and px[members].max() > 0:
            g[z] = members[np.argmax(px[members])]
    return g


def _encoder_sweep(g: np.ndarray, px: np.ndarray, k: int) -> np.ndarray:
    """Best deterministic encoder for a decoder.

    Each input goes to the first code that decodes back to it.  Inputs no
    code decodes to are indifferent (any code is an argmax for them), so
    the positive-mass ones are routed to currently unused codes, which the
    next decoder update then claims for them.
    """
    nx = px.size
    f = np.full(nx, -1)
    for z in range(k):
        if f[g[z]] == -1:
            f[g[z]] = z
    unused = [z for z in range(k) if z not in set(f[f >= 0])]
    for x in range(nx):
        if f[x] == -1:
            if px[x] > 0 and unused:
                f[x] = unused.pop(0)
            else:
                f[x] = 0
    return f


def _recon_prob(f: np.ndarray, g: np.ndarray, px: np.ndarray) -> float:
    return float(px[g[f] == np.arange(px.size)].sum())


def autoencode(
    prior: Distribution,
    latent_size: int,
    max_iters: int = 100,
    restarts: int = 16,
    seed: int = 0,
) -> AutoencoderResult:
    """Alternating maximization of reconstruction probability over a finite code.

    Both the encoder and decoder steps have deterministic optima (the
    objective is linear in each argument), so the search alternates over
    assignment vectors: decode each code to its heaviest preimage, then
    re-encode each input to a code that recovers it.  Each sweep strictly
    improves the objective or stops, so runs are finite; the joint problem
    is non-convex, hence seeded random restarts.
    """
    if latent_size < 1:
        raise ValueError("latent_size must be at least 1")
    if restarts < 1 or max_iters < 1:
        raise ValueError("restarts and max_iters must be at least 1")
    rng = np.random.default_rng(seed)
    px = prior.mass
    k = latent_size

    best_f = best_g = None
    best_obj = -1.0
    best_trace: tuple[float, ...] = ()
    used = 0
    for _ in range(restarts):
        used += 1
        f = rng.integers(0, k, size=px.size)
        g = _map_decode(f, px, k)
        obj = _recon_prob(f, g, px)
        trace = [obj]
        for _ in range(max_iters):
            f2 = _encoder_sweep(g, px, k)
            g2 = _map_decode(f2, px, k)
            obj2 = _recon_prob(f2, g2, px)
            if obj2 <= obj:
                break
            f, g, obj = f2, g2, obj2
            trace.append(obj)
        if obj > best_obj:
            best_f, best_g, best_obj, best_trace = f, g, obj, tuple(trace)
        if best_obj >= 1.0 - 1e-12:
            break

    latent = FiniteSpace.of_size(k, prefix="z")
    enc = np.zeros((k, px.size))
    enc[best_f, np.arange(px.size)] = 1.0
    dec = np.zeros((px.size, k))
    dec[best_g, np.arange(k)] = 1.0
    # summing the unrecovered mass avoids 1 - (sum ~ 1) cancellation, so a
    # lossless code reports exactly zero
    missed = float(px[best_g[best_f] != np.arange(px.size)].sum())
    return AutoencoderResult(
        encoder=MarkovKernel(prior.space, latent, enc),
        decoder=MarkovKernel(latent, prior.space, dec),
        epsilon=2.0 * missed,
        trace=best_trace,
        restarts_used=used,
        seed=seed,
    )


def stack(
    prior: Distribution,
    sizes: list[int] | tuple[int, ...],
    max_iters: int = 100,
    restarts: int = 16,
    seed: int = 0,
) -> FeatureChain:
    """Greedy layerwise training: each layer autoencodes the previous layer's output prior.

    The end-to-end quality of the composed encoder never exceeds the sum of
    the per-layer qualities, so a deep code built this way inherits an
    additive certificate from its layers.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    rng = np.random.default_rng(seed)
    layers: list[MarkovKernel] = []
    qualities: list[float] = []
    priors: list[Distribution] = []
    current = prior
    for k in sizes:
        result = autoencode(
            current,
            int(k),
            max_iters=max_iters,
            restarts=restarts,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
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
