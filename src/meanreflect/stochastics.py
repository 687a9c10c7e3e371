"""Reproducible random-variate generation with counter-based substreams.

Every draw is a pure function of its key ``(seed, particle, step, channel,
sub)``. The key is hashed through Philox4x32-10 (Salmon et al., SC'11), a
counter-based generator designed for exactly this access pattern and checked
against the Random123 known answers, so

* the same key always yields the same draw,
* distinct keys yield statistically independent draws, and
* any subset of draws can be regenerated in any order, by any number of
  workers, with bit-identical results.

The draw functions take particle, step and sub indices that broadcast like
numpy operands, one draw per broadcast element. :class:`NoiseRecord` is
the checked view of one run's share of the key space.

Variates are produced by inverse transform from a single uniform per key:
Gaussians through the normal quantile, Poisson counts through CDF
inversion, jump marks through the law's quantile function. This keeps the
consumption per key fixed, which is what makes replay order-independent.
The kernels get their speed from in-place Philox rounds and from Poisson
terms over the still-active lanes only, never from changing a draw.

Expectations over a law use no draws at all: each law carries one fixed
quadrature rule, and :func:`expect` is the single place that applies it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Callable, Union

import numpy as np
from scipy.special import ndtri

from .errors import NoiseMismatch

_MASK32 = np.uint64(0xFFFFFFFF)
_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_PHILOX_W0 = 0x9E3779B9  # key schedule, on Python ints
_PHILOX_W1 = 0xBB67AE85
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


#: The key schedule's Weyl increments of rounds 0..9: round r adds r * W.
_WEYL0 = np.arange(10, dtype=np.uint64) * np.uint64(_PHILOX_W0)
_WEYL1 = np.arange(10, dtype=np.uint64) * np.uint64(_PHILOX_W1)


def _philox4x32(c0, c1, c2, c3, k0, k1):
    """Philox4x32-10 block function on uint64 arrays holding 32-bit lanes.

    Counter words and keys broadcast like numpy operands: a key is a scalar,
    or an array such as one ``(rows, 1)`` key per row of a batch. Round r
    uses key ``k + r * W mod 2**32`` (keys are below 2**32, so the uint64
    sum is exact). Round 0 reads the inputs into fresh words of the
    broadcast shape; every later round writes its two products over the
    words they consume and its two low halves into the two words the round
    before left free, so a block allocates six arrays and never writes an
    input. A 0-d block stays on numpy scalars.
    """
    c0, c1, c2, c3 = (np.asarray(c, np.uint64) for c in (c0, c1, c2, c3))
    shape = np.broadcast(c0, c1, c2, c3, k0).shape
    keys0 = np.add.outer(_WEYL0, k0) & _MASK32  # keys0[r]: round r's key, k0's shape
    keys1 = np.add.outer(_WEYL1, k1) & _MASK32
    fresh = (lambda: np.empty(shape, np.uint64)) if shape else (lambda: None)
    own = False  # whether c0..c3 are this block's own words
    free = fresh(), fresh()
    for r in range(10):
        p0 = np.multiply(c0, _PHILOX_M0, out=c0 if own else fresh())
        p1 = np.multiply(c2, _PHILOX_M1, out=c2 if own else fresh())
        lo0 = np.bitwise_and(p0, _MASK32, out=free[0])
        lo1 = np.bitwise_and(p1, _MASK32, out=free[1])
        p1 >>= _SHIFT32
        p1 ^= c1
        p1 ^= keys0[r]
        p0 >>= _SHIFT32
        p0 ^= c3
        p0 ^= keys1[r]
        free = (c1, c3) if own else (fresh(), fresh())
        own = bool(shape)
        c0, c1, c2, c3 = p1, lo1, p0, lo0
    return c0, c1, c2, c3


def _block(seed, particle, step, channel: int, sub):
    # An array holds one seed per row (or per lane), already in 0..2**64-1.
    seed = np.asarray(seed, np.uint64) if np.ndim(seed) else np.uint64(int(seed) % 2**64)
    particle = np.asarray(particle, dtype=np.uint64) & _MASK32
    step = np.asarray(step, dtype=np.uint64) & _MASK32
    sub = np.asarray(sub, dtype=np.uint64) & _MASK32
    return _philox4x32(particle, step, int(channel), sub, seed & _MASK32, seed >> _SHIFT32)


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


def gaussians(seed: int, particle, step) -> np.ndarray:
    """Standard normal draws on the gaussian channel."""
    return ndtri(uniforms(seed, particle, step, Channel.GAUSSIAN))


def _poisson_inversion(u: np.ndarray, mean: float) -> np.ndarray:
    """Smallest k with Poisson CDF(k) >= u, by forward summation. Every lane
    sums the same terms in the same order, so they are Python floats summed
    once; each term visits only the lanes whose u still exceeds the CDF."""
    counts = np.zeros(np.shape(u), dtype=np.int64)
    flat = counts.reshape(-1)
    pmf = cdf = math.exp(-mean)
    act = (u > cdf).reshape(-1).nonzero()[0]
    u = u.reshape(-1)[act]
    # Cap guards against float saturation of the CDF just below 1.
    cap = int(mean + 12.0 * math.sqrt(mean) + 30.0)
    c = 0
    while act.size and c < cap:
        c += 1
        flat[act] = c
        pmf *= mean / c
        cdf += pmf
        keep = u > cdf
        act, u = act[keep], u[keep]
    return counts


def poisson_counts(seed: int, particle, step, rate_times_dt: float) -> np.ndarray:
    """Poisson draws with mean ``rate_times_dt`` on the count channel."""
    if rate_times_dt < 0.0:
        raise ValueError(f"rate_times_dt must be >= 0, got {rate_times_dt}")
    u = uniforms(seed, particle, step, Channel.POISSON_COUNT)
    if rate_times_dt <= POISSON_INVERSION_CUTOFF:
        return _poisson_inversion(u, rate_times_dt)
    from scipy import stats  # slow to import; no shipped config gets here
    return stats.poisson.ppf(u, rate_times_dt).astype(np.int64)


# ---------------------------------------------------------------------------
# Sampling laws (jump-size marks and initial conditions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiracPoint:
    """Point mass at ``value`` (default: the unit mark)."""

    value: float = 1.0

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
        try:
            self.mean()
        except OverflowError:
            raise ValueError(
                f"LogNormal mean overflows: location={self.location}, scale={self.scale}"
            ) from None

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


def jump_sizes(seed: int, particle, step, sub, law: Law) -> np.ndarray:
    """Jump marks drawn from ``law`` on the mark channel, ``sub`` numbering
    the marks of one (particle, step)."""
    return law.from_uniform(uniforms(seed, particle, step, Channel.JUMP_SIZE, sub))


def derive_seed(seed: int, index: int, purpose: int = 0) -> int:
    """Derive an independent 64-bit child seed (replications, internal RNG)."""
    r0, r1, _, _ = _block(seed, index, purpose, Channel.DERIVE, 0)
    return int((int(r1) << 32) | int(r0))


# ---------------------------------------------------------------------------
# Noise record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseRecord:
    """Checked view of every draw a scheme run consumes.

    Nothing is stored: draws are regenerated on demand from the key space,
    which is what lets the exact-solution oracles consume the very same
    noise as the particle scheme without materializing n x N arrays.
    Particles are numbered 0..n_particles-1 and steps 1..n_steps; the
    initial condition has its own channel. Each method broadcasts its index
    arrays like numpy operands and raises :class:`NoiseMismatch` for any
    index outside the record, so ``gaussians(np.arange(N), k)`` is step k
    of the scheme and ``gaussians(i, np.arange(1, n + 1))`` is the path of
    particle i, bit for bit the same draws; :meth:`jumps` keys every mark.

    ``seed`` is an int, or a uint64 array of seeds that broadcasts against
    the indices like one more operand: with a ``(rows, 1)`` column of seeds,
    ``gaussians(np.arange(N), k)`` is step k of ``rows`` runs at once, row r
    bit for bit the draws of a record with the int seed of row r.
    """

    seed: int | np.ndarray
    n_steps: int
    n_particles: int
    jump_mean: float  # intensity * dt
    jump_law: Law

    def _check(self, particles, steps=None) -> None:
        bounds = [("particle", particles, 0, self.n_particles - 1)]
        if steps is not None:
            bounds.append(("step", steps, 1, self.n_steps))
        for name, index, lo, hi in bounds:
            if isinstance(index, (int, np.integer)):  # e.g. the step of a scheme call
                ok = lo <= int(index) <= hi
            else:
                index = np.asarray(index)
                ok = not index.size or lo <= index.min() and index.max() <= hi
            if not ok:
                bad = np.asarray(index)[(index < lo) | (index > hi)].flat[0]
                raise NoiseMismatch(f"{name} {bad} outside {lo}..{hi} of this record")

    def gaussians(self, particles, steps) -> np.ndarray:
        """Standard normal Brownian draws."""
        self._check(particles, steps)
        return gaussians(self.seed, particles, steps)

    def counts(self, particles, steps) -> np.ndarray:
        """Poisson jump counts with mean ``jump_mean``."""
        self._check(particles, steps)
        return poisson_counts(self.seed, particles, steps, self.jump_mean)

    def marks(self, particles, steps, sub) -> np.ndarray:
        """The ``sub``-th jump marks, drawn from ``jump_law``."""
        self._check(particles, steps)
        law = self.jump_law
        if isinstance(law, DiracPoint):  # every mark is the atom: nothing to hash
            shapes = (np.shape(i) for i in (self.seed, particles, steps, sub))
            return np.full(np.broadcast_shapes(*shapes), law.value)
        return law.from_uniform(uniforms(self.seed, particles, steps, Channel.JUMP_SIZE, sub))

    def jumps(self, particles, steps) -> tuple[np.ndarray, np.ndarray]:
        """Every mark of the broadcast cells in one draw, as ``(cells, marks)``:
        flat cell indices in C order, mark j of a cell keyed ``sub = j`` and
        placed j-th among its cell's marks. A call with no jump draws no mark.
        With a seed per row, the rows are part of the cells and each mark is
        keyed by its own row's seed."""
        counts = self.counts(particles, steps)
        shape, counts = counts.shape, counts.reshape(-1)
        cells = np.repeat(np.arange(counts.size), counts)
        if not cells.size:
            return cells, np.empty(0)
        sub = np.arange(cells.size) - (np.cumsum(counts) - counts)[cells]
        p, k = (np.broadcast_to(i, shape).reshape(-1)[cells] for i in (particles, steps))
        record = self
        if np.ndim(self.seed):
            record = replace(self, seed=np.broadcast_to(self.seed, shape).reshape(-1)[cells])
        return cells, record.marks(p, k, sub)

    def initial_uniforms(self, particles) -> np.ndarray:
        """Uniforms feeding the initial law of the given particles."""
        self._check(particles)
        return uniforms(self.seed, particles, 0, Channel.INITIAL)
