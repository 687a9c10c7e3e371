"""Counter-based noise: determinism, distributional moments, replay invariance."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from meanreflect import stochastics as sto
from meanreflect.errors import NoiseMismatch
from meanreflect.stochastics import (
    Channel,
    CustomSampler,
    DiracPoint,
    LogNormal,
    NoiseRecord,
    derive_seed,
    expect,
    gaussians,
    jump_sizes,
    poisson_counts,
    uniforms,
)

SQRT_E = math.sqrt(math.e)


# Philox4x32-10 known-answer vectors (counter c0..c3, key k0..k1 -> 4 words).
PHILOX_VECTORS = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    (
        (0xFFFFFFFF,) * 4,
        (0xFFFFFFFF,) * 2,
        (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
    ),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


def test_philox_known_answer_vectors():
    for ctr, key, want in PHILOX_VECTORS:
        got = sto._philox4x32(
            np.uint64(ctr[0]), np.uint64(ctr[1]), np.uint64(ctr[2]),
            np.uint64(ctr[3]), np.uint64(key[0]), np.uint64(key[1]),
        )
        assert tuple(int(w) for w in got) == want


def _philox_reference(c0, c1, c2, c3, k0, k1):
    """The 14-operation round of the original kernel, kept as the oracle."""
    c0, c1, c2, c3, k0, k1 = np.broadcast_arrays(
        *(np.asarray(w, np.uint64) for w in (c0, c1, c2, c3, k0, k1)))
    mask, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    k0, k1 = k0.copy(), k1.copy()
    for _ in range(10):
        p0 = c0 * np.uint64(0xD2511F53)
        p1 = c2 * np.uint64(0xCD9E8D57)
        hi0, lo0, hi1, lo1 = p0 >> shift, p0 & mask, p1 >> shift, p1 & mask
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + np.uint64(0x9E3779B9)) & mask
        k1 = (k1 + np.uint64(0xBB67AE85)) & mask
    return c0, c1, c2, c3


def _poisson_reference(u, mean):
    """The original masked CDF-inversion loop over every lane, kept as the oracle."""
    pmf = np.full(u.shape, math.exp(-mean))
    cdf = pmf.copy()
    counts = np.zeros(u.shape, dtype=np.int64)
    for _ in range(int(mean + 12.0 * math.sqrt(mean) + 30.0)):
        active = u > cdf
        if not active.any():
            break
        counts[active] += 1
        pmf[active] *= mean / counts[active]
        cdf[active] += pmf[active]
    return counts


_U64 = np.uint64
PHILOX_SHAPES = {
    "scalar": (_U64(7), _U64(3), _U64(1), _U64(0)),
    "particles": (np.arange(1000, dtype=_U64), _U64(5), _U64(0), _U64(0)),
    "steps-x-particles": (np.arange(300, dtype=_U64)[None, :],
                          np.arange(1, 9, dtype=_U64)[:, None], _U64(1), _U64(0)),
    "sub": (_U64(4), _U64(9), _U64(2), np.arange(64, dtype=_U64)),
    "full-width": tuple(np.arange(4 * 257, dtype=_U64).reshape(4, 257) * _U64(0x9E3779B1)
                        & _U64(0xFFFFFFFF)),
}


PHILOX_KEYS = ((0, 0), (0xA4093822, 0x299F31D0), (0xFFFFFFFF, 0xFFFFFFFF))


@pytest.mark.parametrize("name", sorted(PHILOX_SHAPES))
def test_philox_matches_reference_round(name):
    words = PHILOX_SHAPES[name]
    for key in PHILOX_KEYS:
        got = sto._philox4x32(*words, _U64(key[0]), _U64(key[1]))
        want = _philox_reference(*words, _U64(key[0]), _U64(key[1]))
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w)
    # One key per row, as a leading axis the counter words broadcast against.
    ndim = max(np.ndim(w) for w in words)
    k0, k1 = (np.array(k, _U64).reshape(-1, *[1] * ndim) for k in zip(*PHILOX_KEYS))
    got = sto._philox4x32(*words, k0, k1)
    for row, key in enumerate(PHILOX_KEYS):
        want = _philox_reference(*words, _U64(key[0]), _U64(key[1]))
        for g, w in zip(got, want):
            assert g.shape == (len(PHILOX_KEYS), *np.shape(w))
            assert np.array_equal(g[row], w)


def test_block_with_row_keys_matches_per_seed_blocks():
    # the batch layout: a (rows, 1) column of 64-bit seeds against particle
    # indices, and one seed per lane, as the marks of a batch are keyed
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, derive_seed(7, 3, 1)]
    column = np.array(seeds, _U64)[:, None]
    particles = np.arange(300)
    for channel in Channel:
        got = sto._block(column, particles, 4, channel, 2)
        for row, seed in enumerate(seeds):
            want = sto._block(seed, particles, 4, channel, 2)
            for g, w in zip(got, want):
                assert np.array_equal(g[row], w)
    lanes = np.repeat(np.arange(len(seeds)), 3)
    sub = np.arange(lanes.size) % 3
    got = sto._block(np.array(seeds, _U64)[lanes], lanes, 9, Channel.JUMP_SIZE, sub)
    for lane, row in enumerate(lanes):
        want = sto._block(seeds[row], row, 9, Channel.JUMP_SIZE, sub[lane])
        assert [int(g[lane]) for g in got] == [int(w) for w in want]


def test_philox_leaves_inputs_unmodified():
    words = [np.arange(100, dtype=_U64) * _U64(k + 1) for k in range(4)]
    before = [w.copy() for w in words]
    sto._philox4x32(*words, _U64(3), _U64(5))
    sto._philox4x32(words[0], _U64(1), _U64(2), words[3], _U64(3), _U64(5))
    for w, b in zip(words, before):
        assert np.array_equal(w, b)


@pytest.mark.parametrize("mean", [0.05, 0.075, 1.0, 5.0, 10.0])
def test_poisson_inversion_matches_reference_loop(mean):
    u = uniforms(2718, np.arange(100_000), 1, Channel.POISSON_COUNT)
    below_one = 1.0 - np.arange(8) * np.finfo(float).epsneg
    cap = int(mean + 12.0 * math.sqrt(mean) + 30.0)
    # Uniforms on and beside each CDF term: a term off by one ulp moves a count.
    pmf = cdf = math.exp(-mean)
    terms = [cdf]
    for k in range(1, cap):
        pmf *= mean / k
        cdf += pmf
        terms.append(cdf)
    edges = np.concatenate([np.nextafter(terms, 0.0), terms, np.nextafter(terms, 1.0)])
    edges = edges[edges < 1.0]
    for v in (u, u.reshape(250, 400), below_one, below_one[3], edges):
        got = sto._poisson_inversion(v, mean)
        assert got.shape == np.shape(v)
        assert np.array_equal(got, _poisson_reference(np.asarray(v), mean))
    if mean == 10.0:  # the summed CDF saturates below the largest double under 1
        assert sto._poisson_inversion(below_one, mean)[0] == cap


def test_same_key_same_draw():
    key = (123456789, 42, 7)
    assert gaussians(*key) == gaussians(*key)
    assert uniforms(*key, Channel.GAUSSIAN) == uniforms(*key, Channel.GAUSSIAN)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    particle=st.integers(min_value=0, max_value=2**32 - 1),
    step=st.integers(min_value=0, max_value=2**32 - 1),
    sub=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_key_determinism_property(seed, particle, step, sub):
    first = uniforms(seed, particle, step, Channel.JUMP_SIZE, sub)
    assert first.shape == ()
    assert 0.0 < first < 1.0
    assert uniforms(seed, particle, step, Channel.JUMP_SIZE, sub) == first


def test_distinct_subkeys_distinct_draws():
    base = uniforms(5, np.arange(1000), 3, Channel.GAUSSIAN)
    shifted_step = uniforms(5, np.arange(1000), 4, Channel.GAUSSIAN)
    other_channel = uniforms(5, np.arange(1000), 3, Channel.POISSON_COUNT)
    assert np.all(base != shifted_step)
    assert np.all(base != other_channel)


def test_gaussian_moments_million_draws():
    draws = gaussians(2024, np.arange(1_000_000), 1)
    assert abs(draws.mean()) < 4.0 / math.sqrt(1_000_000)
    assert 0.99 < draws.var() < 1.01


def test_poisson_zero_rate():
    assert poisson_counts(1, 2, 3, 0.0) == 0
    assert np.all(poisson_counts(1, np.arange(100), 3, 0.0) == 0)


def test_poisson_small_mean_matches():
    # lambda = 5, dt = 1/500 -> mean 0.01
    mean = 5.0 * (1.0 / 500.0)
    assert mean == 0.01
    draws = poisson_counts(99, np.arange(1_000_000), 2, mean)
    se = math.sqrt(mean / 1_000_000)
    assert abs(draws.mean() - mean) < 4.0 * se
    assert abs(draws.var() - mean) < 6.0 * se  # Poisson variance equals its mean


def test_poisson_large_mean_inversion_fallback():
    draws = poisson_counts(7, np.arange(200_000), 1, 25.0)
    se = math.sqrt(25.0 / 200_000)
    assert abs(draws.mean() - 25.0) < 4.0 * se
    assert abs(draws.var() / 25.0 - 1.0) < 0.05


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import; only the large-mean
    # fallback above needs it, so importing the package must not load it.
    paths = [str(Path(sto.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = "import sys, meanreflect; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_poisson_negative_mean_rejected():
    with pytest.raises(ValueError):
        poisson_counts(1, np.arange(4), 1, -0.5)


def test_jump_sizes_empty_and_dirac():
    assert jump_sizes(3, 0, 1, np.arange(0), LogNormal()).size == 0
    assert np.array_equal(jump_sizes(3, 0, 1, np.arange(3), DiracPoint(1.0)), np.ones(3))
    u = uniforms(3, 0, 1, Channel.JUMP_SIZE, np.arange(3))
    assert np.array_equal(jump_sizes(3, 0, 1, np.arange(3), LogNormal()),
                          LogNormal().from_uniform(u))


def test_lognormal_mean_million_draws():
    u = uniforms(11, np.arange(1_000_000), 1, Channel.JUMP_SIZE)
    marks = LogNormal(0.0, 1.0).from_uniform(u)
    se = math.sqrt((math.e - 1.0) * math.e / 1_000_000)
    assert abs(marks.mean() - SQRT_E) < 4.0 * se


def test_custom_sampler_quantile():
    law = CustomSampler(quantile=lambda u: 2.0 * u + 1.0)
    u = uniforms(1, np.arange(1000), 0, Channel.JUMP_SIZE)
    vals = law.from_uniform(u)
    assert np.all((1.0 < vals) & (vals < 3.0))
    assert law.mean() == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize(
    "law, power, want, rel",
    [
        (DiracPoint(1.5), 2, 2.25, 0.0),
        *[(LogNormal(0.0, s), k, math.exp(0.5 * (k * s) ** 2), 1e-12)
          for s in (0.5, 1.0, 2.0, 3.0) for k in (1, 2)],
        (CustomSampler(lambda u: 2.0 * u + 1.0), 1, 2.0, 1e-12),
        (CustomSampler(lambda u: -np.log1p(-u)), 1, 1.0, 5e-4),
        (CustomSampler(lambda u: np.exp(ndtri(u))), 1, SQRT_E, 3e-3),
    ],
    ids=["dirac"] + [f"lognormal-{s}-m{k}" for s in (0.5, 1, 2, 3) for k in (1, 2)]
    + ["quantile-linear", "quantile-exp", "quantile-lognormal"],
)
def test_quadrature_rule_moments(law, power, want, rel):
    assert abs(expect(law, lambda z: z**power) - want) <= rel * want


def test_replay_invariance_orders_and_chunks():
    seed, step, n = 77, 5, 4096
    full = gaussians(seed, np.arange(n), step)
    chunked = np.concatenate(
        [gaussians(seed, np.arange(lo, lo + 512), step) for lo in range(0, n, 512)]
    )
    reversed_order = gaussians(seed, np.arange(n)[::-1], step)[::-1]
    scalar = np.array([gaussians(seed, i, step) for i in range(0, n, 257)])
    assert np.array_equal(full, chunked)
    assert np.array_equal(full, reversed_order)
    assert np.array_equal(full[::257], scalar)


def test_brownian_increment_consistency():
    # sqrt(dt) * G summed along a path has variance t.
    n_paths, n_steps, dt = 2000, 100, 0.01
    g = gaussians(31, np.arange(n_paths)[:, None], np.arange(1, n_steps + 1)[None, :])
    endpoints = math.sqrt(dt) * g.sum(axis=1)
    t = n_steps * dt
    rel_tol = 4.0 * math.sqrt(2.0 / n_paths)
    assert abs(endpoints.var() / t - 1.0) < rel_tol


def test_derive_seed_spread():
    children = {derive_seed(123, i) for i in range(1000)}
    assert len(children) == 1000
    assert derive_seed(123, 5) == derive_seed(123, 5)
    assert derive_seed(123, 5, purpose=1) != derive_seed(123, 5)


class TestNoiseRecord:
    def record(self) -> NoiseRecord:
        return NoiseRecord(
            seed=9, n_steps=20, n_particles=50, jump_mean=0.4,
            jump_law=LogNormal(),
        )

    def test_matches_direct_functions(self):
        rec = self.record()
        particles = np.arange(50)
        assert np.array_equal(rec.gaussians(particles, 3), gaussians(9, particles, 3))
        assert np.array_equal(
            rec.counts(particles, 3), poisson_counts(9, particles, 3, 0.4)
        )
        assert np.array_equal(
            rec.marks(particles, 3, 1), jump_sizes(9, particles, 3, 1, LogNormal())
        )
        assert np.array_equal(
            rec.initial_uniforms(particles), uniforms(9, particles, 0, Channel.INITIAL)
        )

    def test_particle_views_consistent(self):
        # One particle over all steps is the matching column of the
        # step-major calls the scheme makes, bit for bit.
        rec = self.record()
        particles, steps = np.arange(50), np.arange(1, 21)

        def by_step(draw):
            return np.stack([draw(particles, k) for k in steps])

        assert np.array_equal(rec.gaussians(7, steps), by_step(rec.gaussians)[:, 7])
        assert np.array_equal(rec.counts(7, steps), by_step(rec.counts)[:, 7])
        for sub in (0, 2):
            marks = lambda p, k: rec.marks(p, k, sub)
            assert np.array_equal(marks(7, steps), by_step(marks)[:, 7])
        grid = rec.gaussians(particles[None, :], steps[:, None])
        assert np.array_equal(grid, by_step(rec.gaussians))

    def test_step_and_particle_bounds(self):
        rec = self.record()
        draws = {
            "gaussians": rec.gaussians,
            "counts": rec.counts,
            "marks": lambda p, k: rec.marks(p, k, 0),
            "jumps": lambda p, k: np.bincount(rec.jumps(p, k)[0], minlength=np.size(p)),
            "initial_uniforms": lambda p, k: rec.initial_uniforms(p),
        }
        for name, draw in draws.items():
            assert draw(np.arange(50), 20).shape == (50,), name
            for particles in (50, -1, np.arange(60), np.array([70]), np.arange(40, 80)):
                with pytest.raises(NoiseMismatch, match="particle"):
                    draw(particles, 3)
            if name == "initial_uniforms":
                continue
            for steps in (0, 21, np.arange(0, 5), np.arange(18, 22)):
                with pytest.raises(NoiseMismatch, match="step"):
                    draw(np.arange(50), steps)

    @pytest.mark.parametrize("particles, steps", [
        (np.arange(50), 4),
        (7, np.arange(1, 21)),
        (np.arange(20)[:, None], np.arange(1, 21)),
        (np.arange(50), np.arange(1, 21)[:, None]),
    ], ids=["particles-x-step", "particle-x-steps", "column-x-steps", "particles-x-column"])
    def test_jumps_key_mark_j_of_a_cell_by_sub_j(self, particles, steps):
        rec = dataclasses.replace(self.record(), jump_mean=3.0)
        cells, marks = rec.jumps(particles, steps)
        want_cells, want_marks = [], []
        every_p, every_k = np.broadcast_arrays(particles, steps)
        for cell, (p, k) in enumerate(zip(every_p.flat, every_k.flat)):
            for j in range(rec.counts(p, k)):
                want_cells.append(cell)
                want_marks.append(rec.marks(p, k, j))
        assert np.bincount(want_cells).max() >= 3
        assert np.array_equal(cells, want_cells)
        assert np.array_equal(marks, want_marks)

    def test_point_mass_marks_hash_nothing(self, monkeypatch):
        rec = dataclasses.replace(self.record(), jump_mean=3.0, jump_law=DiracPoint(0.25))
        blocks = []
        philox = sto._philox4x32

        def counting(*words):
            blocks.append(np.shape(words[0]))
            return philox(*words)

        monkeypatch.setattr(sto, "_philox4x32", counting)
        marks = rec.marks(np.arange(50), 3, np.arange(4)[:, None])
        assert marks.shape == (4, 50) and np.all(marks == 0.25)
        assert blocks == []
        with pytest.raises(NoiseMismatch, match="step"):
            rec.marks(np.arange(50), 0, 1)
        cells, marks = rec.jumps(np.arange(50), np.arange(1, 21)[:, None])
        assert len(blocks) == 1  # the counts; no mark is hashed
        assert marks.shape == cells.shape and cells.size > 1000
        assert np.all(marks == 0.25)
        # the same marks the hashed quantile transform gives
        u = uniforms(9, np.arange(50), 3, Channel.JUMP_SIZE, 1)
        assert np.array_equal(rec.marks(np.arange(50), 3, 1), DiracPoint(0.25).from_uniform(u))

    def test_row_seeds_draw_each_row_as_its_own_record(self):
        seeds = [derive_seed(5, r, 1) for r in range(6)]
        batch = dataclasses.replace(self.record(), seed=np.array(seeds, np.uint64)[:, None],
                                    jump_mean=2.0)
        single = [dataclasses.replace(batch, seed=s) for s in seeds]
        particles = np.arange(10, 50)
        for draw in ("gaussians", "counts"):
            got = getattr(batch, draw)(particles, 7)
            assert got.shape == (6, 40)
            for row, rec in enumerate(single):
                assert np.array_equal(got[row], getattr(rec, draw)(particles, 7)), draw
        assert np.array_equal(batch.initial_uniforms(particles)[2],
                              single[2].initial_uniforms(particles))
        cells, marks = batch.jumps(particles, 7)
        for row, rec in enumerate(single):
            want_cells, want_marks = rec.jumps(particles, 7)
            mine = (cells >= 40 * row) & (cells < 40 * (row + 1))
            assert np.array_equal(cells[mine] - 40 * row, want_cells)
            assert np.array_equal(marks[mine], want_marks)

    def test_jumps_without_a_jump_draw_no_mark(self, monkeypatch):
        rec = dataclasses.replace(self.record(), jump_mean=0.0)
        channels = []

        def spy(seed, particle, step, channel, sub=0):
            channels.append(channel)
            return uniforms(seed, particle, step, channel, sub)

        monkeypatch.setattr(sto, "uniforms", spy)
        cells, marks = rec.jumps(np.arange(50), np.arange(1, 21)[:, None])
        assert cells.shape == marks.shape == (0,)
        assert channels == [Channel.POISSON_COUNT]
