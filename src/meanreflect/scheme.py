"""Discrete interacting-particle Euler scheme.

N coupled particles are advanced on a uniform grid. Each step updates the
unreflected states U with left-point Euler increments (drift minus jump
compensator, Brownian increment, and the jump amplitudes of each particle's
marks from ``NoiseRecord.jumps``, added left to right), recomputes the
minimal push g0 of the empirical U-cloud, advances the running supremum,
and applies the sup increment to every reflected state X. The coupling

    X[i] = U[i] + running_sup

holds exactly at every completed step by construction.

Within a step, particle updates are embarrassingly parallel and are chunked
over disjoint index ranges; every value depends only on (seed, particle,
step), and the g0 reduction is a single numpy call over the full array, so
results are bit-identical for any worker count. A batch of runs, one seed
per row of a ``(rows, N)`` state, shares every noise and update call; its
reductions run row by row, so each row is bit for bit its own run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteState
from .model import Constraint, ModelSpec
from .parallel import run_chunked
from .reflection import MeanEvaluator, ReflectionTracker
from .stochastics import DiracPoint, NoiseRecord


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of ``steps`` intervals on [0, horizon]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def noise_record(
    model: ModelSpec, grid: GridSpec, n_particles: int, seed: int | np.ndarray
) -> NoiseRecord:
    """The keyed noise a run of ``model`` on ``grid`` draws; ``seed`` is an
    int, or a ``(rows, 1)`` column of seeds for a batch of runs."""
    return NoiseRecord(
        seed=seed,
        n_steps=grid.steps,
        n_particles=n_particles,
        jump_mean=model.intensity * grid.dt,
        jump_law=model.jump_size_law,
    )


@dataclass
class TrajectoryRecord:
    """Per-step output of one scheme run, or of a batch of runs: each series
    has one entry per grid time, and one row of them per seed of a batch."""

    times: np.ndarray
    k_hat: np.ndarray
    delta_k: np.ndarray
    mean_h: np.ndarray
    mean_x: np.ndarray
    var_x: np.ndarray
    noise: NoiseRecord | None = None


class ParticleSystem:
    """State of the coupled particle arrays plus the step clock.

    Owned by a single stepping controller; `step` mutates in place. Use
    :func:`simulate` unless you need step-level control.

    An int ``seed`` gives the ``(N,)`` state of one run. A sequence of seeds
    gives a batch: ``U`` and ``X`` are ``(rows, N)``, one row per seed, the
    noise is keyed by one seed per row, and each row has its own reflection
    tracker, so row r is bit for bit the run with seed r. The per-step
    statistics (``running_sup``, ``last_mean_h``, ...) are floats for one run
    and ``(rows,)`` arrays for a batch.
    """

    def __init__(
        self,
        model: ModelSpec,
        constraint: Constraint,
        grid: GridSpec,
        n_particles: int,
        seed: int | Sequence[int],
        threads: int | None = None,
    ):
        if n_particles < 1:
            raise ValueError(f"n_particles must be >= 1, got {n_particles}")
        self.model = model
        self.constraint = constraint
        self.grid = grid
        self.n_particles = n_particles
        self.threads = threads
        if isinstance(seed, (int, np.integer)):
            self.seed = key = int(seed)
            shape = (n_particles,)
        else:
            self.seed = tuple(int(s) for s in seed)
            if not self.seed:
                raise ValueError("a batch needs at least one seed")
            key = np.array([s % 2**64 for s in self.seed], np.uint64)[:, None]
            shape = (len(self.seed), n_particles)
        self.noise = noise_record(model, grid, n_particles, key)
        if isinstance(model.initial_law, DiracPoint):
            self.U = np.full(shape, float(model.initial_law.value))
        else:  # every law's draws are float64; np.array copies them
            u = self.noise.initial_uniforms(np.arange(n_particles))
            self.U = np.array(model.initial_law.from_uniform(u))
        self.trackers = [ReflectionTracker() for _ in range(math.prod(shape[:-1]))]
        self.k = 0
        self._reflect()

    def _reflect(self):
        """Reflect each row of U into X, keep its constraint statistics, and
        return its increment."""
        rows = self.U.reshape(-1, self.n_particles)
        stats = np.empty((4, len(rows)))
        for r, (u, tracker) in enumerate(zip(rows, self.trackers)):
            evaluator = MeanEvaluator(u, self.constraint)
            delta = tracker.advance(evaluator.g0())
            sup = tracker.running_sup
            stats[:, r] = sup, delta, evaluator(sup), evaluator.atom_mean + sup
        self.X = self.U + stats[0].reshape(*self.U.shape[:-1], 1)
        self.running_sup, delta, self.last_mean_h, self.last_mean_x = (
            stats.reshape(4, *self.U.shape[:-1]))
        self.last_var_x = np.var(self.U, axis=-1)
        return delta

    def _increments(self, x_prev: np.ndarray, step: int) -> np.ndarray:
        model = self.model
        noise = self.noise
        dt = self.grid.dt
        sqrt_dt = math.sqrt(dt)
        out = np.empty_like(x_prev)

        def work(lo: int, hi: int) -> None:
            x = x_prev[..., lo:hi]  # every row of the batch, particles lo..hi-1
            idx = np.arange(lo, hi)
            g = noise.gaussians(idx, step)
            cells, marks = noise.jumps(idx, step)
            at = x.reshape(-1)[cells]
            amp = np.broadcast_to(model.jump_amplitude(at, marks), marks.shape)
            jump = np.bincount(cells, amp, x.size).reshape(x.shape)  # each cell's marks, left to right
            drift_part = model.drift(x) - model.compensate(x)
            out[..., lo:hi] = dt * drift_part + sqrt_dt * (model.diffusion(x) * g) + jump

        run_chunked(work, self.n_particles, self.threads, rows=len(self.trackers))
        return out

    def step(self):
        """Advance one grid step; returns the reflection increment of each row."""
        if self.k >= self.grid.steps:
            raise ValueError(f"grid exhausted after {self.grid.steps} steps")
        step = self.k + 1
        incr = self._increments(self.X, step)
        self.U += incr
        if not np.isfinite(self.U).all():
            raise NonFiniteState(
                f"non-finite particle state at step {step} "
                f"(t={step * self.grid.dt:.6g})"
            )
        delta = self._reflect()
        self.k = step
        return delta


def simulate(
    model: ModelSpec,
    constraint: Constraint,
    grid: GridSpec,
    n_particles: int,
    seed: int | Sequence[int],
    observe: Callable[[int, np.ndarray], None] | None = None,
    threads: int | None = None,
) -> TrajectoryRecord:
    """Run the full scheme and collect the per-step series.

    An int ``seed`` runs one ``(N,)`` cloud. A sequence of seeds runs a
    batch as one ``(rows, N)`` cloud, one row per seed: every noise draw,
    increment and update is one call over all rows, and row r of the state
    and of each series is bit for bit what the int seed r gives, for any
    worker count.

    ``observe(k, X)``, when given, is called with the reflected particle
    states after the initial push (k = 0) and after every step k = 1..n.
    ``X`` is the system's own array: read it, copy what must outlive the
    call, and never write to it.
    """
    system = ParticleSystem(model, constraint, grid, n_particles, seed, threads)
    # In TrajectoryRecord field order: k_hat, delta_k, mean_h, mean_x, var_x.
    series = np.empty((5, *system.U.shape[:-1], grid.steps + 1))

    def capture(k: int, delta) -> None:
        series[..., k] = (system.running_sup, delta, system.last_mean_h,
                          system.last_mean_x, system.last_var_x)
        if observe is not None:
            observe(k, system.X)

    # The running sup starts at 0, so the initial push is its own increment.
    capture(0, system.running_sup)
    for k in range(1, grid.steps + 1):
        capture(k, system.step())
    return TrajectoryRecord(grid.times(), *series, noise=system.noise)
