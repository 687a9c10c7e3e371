"""Reproducible random-variate generation with counter-based substreams.

Every draw is a pure function of a :class:`StreamKey` ``(seed, particle,
step, channel, sub)``. The key is hashed through Philox4x32-10, a
counter-based generator designed for exactly this access pattern, so

* the same key always yields the same draw,
* distinct keys yield statistically independent draws, and
* any subset of draws can be regenerated in any order, by any number of
  workers, with bit-identical results.

Variates are produced by inverse transform from a single uniform per key:
Gaussians through the normal quantile, Poisson counts through CDF
inversion, jump marks through the law's quantile function. This keeps the
consumption per key fixed, which is what makes replay order-independent.

Expectations over a law use no draws at all: each law carries one fixed
quadrature rule, and :func:`expect` is the single place that applies it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Union

import numpy as np
from scipy.special import ndtri

from .errors import NoiseMismatch

_MASK32 = np.uint64(0xFFFFFFFF)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_PHILOX_W0 = np.uint64(0x9E3779B9)
_PHILOX_W1 = np.uint64(0xBB67AE85)
_SHIFT32 = np.uint64(32)

#: Poisson means at or below this use the explicit CDF inversion loop;
#: larger means fall back to the library quantile function (still inversion
#: from the same single uniform, so determinism is unaffected).
POISSON_INVERSION_CUTOFF = 10.0


class Channel(IntEnum):
    """Substream selector inside one (seed, particle, step) cell."""

    GAUSSIAN = 0
    POISSON_COUNT = 1
    JUMP_SIZE = 2
    INITIAL = 3
    DERIVE = 4


@dataclass(frozen=True)
class StreamKey:
    """Address of a single draw in the noise space."""

    seed: int
    particle: int
    step: int
    channel: Channel = Channel.GAUSSIAN
    sub: int = 0


def _philox4x32(c0, c1, c2, c3, k0, k1):
    """Philox4x32-10 block function on uint64 arrays holding 32-bit lanes."""
    c0, c1, c2, c3, k0, k1 = np.broadcast_arrays(
        np.asarray(c0, np.uint64),
        np.asarray(c1, np.uint64),
        np.asarray(c2, np.uint64),
        np.asarray(c3, np.uint64),
        np.asarray(k0, np.uint64),
        np.asarray(k1, np.uint64),
    )
    k0 = k0.copy()
    k1 = k1.copy()
    for _ in range(10):
        p0 = c0 * _PHILOX_M0
        p1 = c2 * _PHILOX_M1
        hi0 = p0 >> _SHIFT32
        lo0 = p0 & _MASK32
        hi1 = p1 >> _SHIFT32
        lo1 = p1 & _MASK32
        c0 = hi1 ^ c1 ^ k0
        c1 = lo1
        c2 = hi0 ^ c3 ^ k1
        c3 = lo0
        k0 = (k0 + _PHILOX_W0) & _MASK32
        k1 = (k1 + _PHILOX_W1) & _MASK32
    return c0, c1, c2, c3


def _split32(value: int) -> tuple[np.uint64, np.uint64]:
    value &= _MASK64
    return np.uint64(value & 0xFFFFFFFF), np.uint64((value >> 32) & 0xFFFFFFFF)


def _block(seed: int, particle, step, channel: int, sub):
    k0, k1 = _split32(int(seed))
    particle = np.asarray(particle, dtype=np.uint64) & _MASK32
    step = np.asarray(step, dtype=np.uint64) & _MASK32
    sub = np.asarray(sub, dtype=np.uint64) & _MASK32
    return _philox4x32(particle, step, np.uint64(int(channel)), sub, k0, k1)


def uniforms(seed: int, particle, step, channel: Channel, sub=0) -> np.ndarray:
    """Uniform(0, 1) doubles, one per broadcast element of the key arrays.

    Built from 53 bits of Philox output and offset by half an ulp so the
    result lies strictly inside (0, 1); quantile transforms never see an
    endpoint.
    """
    r0, r1, _, _ = _block(seed, particle, step, channel, sub)
    hi = (r0 >> np.uint64(5)).astype(np.float64)  # 27 bits
    lo = (r1 >> np.uint64(6)).astype(np.float64)  # 26 bits
    return (hi * 67108864.0 + lo + 0.5) * (1.0 / 9007199254740992.0)


def uniform(key: StreamKey) -> float:
    """Scalar uniform for one key."""
    return float(uniforms(key.seed, key.particle, key.step, key.channel, key.sub))


def gaussians(seed: int, particle, step) -> np.ndarray:
    """Standard normal draws on the gaussian channel."""
    return ndtri(uniforms(seed, particle, step, Channel.GAUSSIAN))


def gaussian(key: StreamKey) -> float:
    """Standard normal draw for one key, deterministic in the key."""
    return float(ndtri(uniform(key)))


def _poisson_inversion(u: np.ndarray, mean: float) -> np.ndarray:
    """Smallest k with Poisson CDF(k) >= u, by forward summation."""
    pmf = np.full(u.shape, math.exp(-mean))
    cdf = pmf.copy()
    counts = np.zeros(u.shape, dtype=np.int64)
    # Cap guards against float saturation of the CDF just below 1.
    cap = int(mean + 12.0 * math.sqrt(mean) + 30.0)
    for _ in range(cap):
        active = u > cdf
        if not active.any():
            break
        counts[active] += 1
        pmf[active] *= mean / counts[active]
        cdf[active] += pmf[active]
    return counts


def poisson_counts(seed: int, particle, step, rate_times_dt: float) -> np.ndarray:
    """Poisson draws with mean ``rate_times_dt`` on the count channel."""
    if rate_times_dt < 0.0:
        raise ValueError(f"rate_times_dt must be >= 0, got {rate_times_dt}")
    u = uniforms(seed, particle, step, Channel.POISSON_COUNT)
    if rate_times_dt == 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    if rate_times_dt <= POISSON_INVERSION_CUTOFF:
        return _poisson_inversion(u, rate_times_dt)
    from scipy import stats  # slow to import; no shipped config gets here
    return stats.poisson.ppf(u, rate_times_dt).astype(np.int64)


def poisson_count(key: StreamKey, rate_times_dt: float) -> int:
    """Scalar Poisson draw for one key."""
    return int(
        poisson_counts(key.seed, key.particle, key.step, rate_times_dt)
    )


# ---------------------------------------------------------------------------
# Sampling laws (jump-size marks and initial conditions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiracPoint:
    """Point mass at ``value``."""

    value: float

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        return np.full(np.shape(u), self.value)

    def mean(self) -> float:
        return self.value

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """The atom itself with weight 1: exact."""
        return np.array([self.value]), np.ones(1)


@functools.lru_cache(maxsize=None)
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """64-node Gauss-Hermite rule for the standard normal law."""
    from numpy.polynomial.hermite_e import hermegauss  # only laws that need it

    nodes, weights = hermegauss(64)
    weights = weights / math.sqrt(2.0 * math.pi)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return nodes, weights


@dataclass(frozen=True)
class LogNormal:
    """exp of a Gaussian with the given location and scale (scale > 0)."""

    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError(f"LogNormal scale must be > 0, got {self.scale}")

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        return np.exp(self.location + self.scale * ndtri(u))

    def mean(self) -> float:
        return math.exp(self.location + 0.5 * self.scale**2)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Hermite nodes of the underlying Gaussian, exponentiated."""
        nodes, weights = _hermite_rule()
        return np.exp(self.location + self.scale * nodes), weights


@dataclass(frozen=True)
class CustomSampler:
    """Arbitrary law given by its quantile function.

    ``quantile`` maps uniforms in (0, 1) to draws elementwise; it must be a
    pure vectorized function for replay invariance to hold.
    """

    quantile: Callable[[np.ndarray], np.ndarray]

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.quantile(u), dtype=np.float64)

    def mean(self) -> float:
        return float(expect(self, lambda z: z))

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """1024-node midpoint rule in the uniform variable of the quantile."""
        u = (np.arange(1024) + 0.5) / 1024
        return self.from_uniform(u), np.full(1024, 1.0 / 1024)


Law = Union[DiracPoint, LogNormal, CustomSampler]


def expect(law: Law, fn: Callable):
    """E[fn(Z)] for Z ~ ``law``, by the law's fixed quadrature rule.

    ``fn`` is called on one node at a time, so memory stays at the size of
    one ``fn`` output whatever the node count.
    """
    return sum(w * fn(z) for z, w in zip(*law.quadrature()))


def jump_sizes(key: StreamKey, count: int, law: Law) -> np.ndarray:
    """``count`` i.i.d. marks for one (particle, step), one sub-key each."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty(0)
    u = uniforms(
        key.seed, key.particle, key.step, Channel.JUMP_SIZE, np.arange(count)
    )
    return law.from_uniform(u)


def derive_seed(seed: int, index: int, purpose: int = 0) -> int:
    """Derive an independent 64-bit child seed (replications, internal RNG)."""
    r0, r1, _, _ = _block(seed, index, purpose, Channel.DERIVE, 0)
    return int((int(r1) << 32) | int(r0))


# ---------------------------------------------------------------------------
# Noise record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseRecord:
    """Lazy view of every draw a scheme run consumes.

    Nothing is stored: draws are regenerated on demand from the key space,
    which is what lets the exact-solution oracles consume the very same
    noise as the particle scheme without materializing n x N arrays.
    Steps are numbered 1..n_steps; step 0 holds the initial-condition
    channel.
    """

    seed: int
    n_steps: int
    n_particles: int
    jump_mean: float  # intensity * dt
    jump_law: Law

    def _check_step(self, step: int) -> None:
        if not 1 <= step <= self.n_steps:
            raise NoiseMismatch(
                f"step {step} outside 1..{self.n_steps} of this record"
            )

    def _check_particle(self, particle: int) -> None:
        if not 0 <= particle < self.n_particles:
            raise NoiseMismatch(
                f"particle {particle} outside 0..{self.n_particles - 1}"
            )

    def gaussians(self, step: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        self._check_step(step)
        hi = self.n_particles if hi is None else hi
        return gaussians(self.seed, np.arange(lo, hi), step)

    def counts(self, step: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        self._check_step(step)
        hi = self.n_particles if hi is None else hi
        return poisson_counts(self.seed, np.arange(lo, hi), step, self.jump_mean)

    def mark_uniforms(self, step: int, particles: np.ndarray, sub: int) -> np.ndarray:
        """Uniforms feeding the ``sub``-th jump mark of the given particles."""
        self._check_step(step)
        return uniforms(self.seed, particles, step, Channel.JUMP_SIZE, sub)

    def marks(self, step: int, particles: np.ndarray, sub: int) -> np.ndarray:
        return self.jump_law.from_uniform(self.mark_uniforms(step, particles, sub))

    def initial_uniforms(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        hi = self.n_particles if hi is None else hi
        return uniforms(self.seed, np.arange(lo, hi), 0, Channel.INITIAL)

    # -- per-particle views used by the coupled oracles ---------------------

    def particle_gaussians(self, particle: int) -> np.ndarray:
        """(n_steps,) Gaussian path of one particle, index k-1 <-> step k."""
        self._check_particle(particle)
        steps = np.arange(1, self.n_steps + 1)
        return gaussians(self.seed, particle, steps)

    def particle_counts(self, particle: int) -> np.ndarray:
        self._check_particle(particle)
        steps = np.arange(1, self.n_steps + 1)
        return poisson_counts(self.seed, particle, steps, self.jump_mean)

    def particle_marks(self, particle: int, step: int, count: int) -> np.ndarray:
        self._check_step(step)
        self._check_particle(particle)
        return jump_sizes(
            StreamKey(self.seed, particle, step, Channel.JUMP_SIZE), count,
            self.jump_law,
        )

    def particle_mark_sums(self, particle: int) -> np.ndarray:
        """(n_steps,) sum of raw marks per step for one particle."""
        counts = self.particle_counts(particle)
        sums = np.zeros(self.n_steps)
        for idx in np.nonzero(counts)[0]:
            step = int(idx) + 1
            sums[idx] = self.particle_marks(particle, step, int(counts[idx])).sum()
        return sums
