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
results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    model: ModelSpec, grid: GridSpec, n_particles: int, seed: int
) -> NoiseRecord:
    """The keyed noise a run of ``model`` on ``grid`` draws."""
    return NoiseRecord(
        seed=seed,
        n_steps=grid.steps,
        n_particles=n_particles,
        jump_mean=model.intensity * grid.dt,
        jump_law=model.jump_size_law,
    )


@dataclass
class TrajectoryRecord:
    """Per-step output of one scheme run."""

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
    """

    def __init__(
        self,
        model: ModelSpec,
        constraint: Constraint,
        grid: GridSpec,
        n_particles: int,
        seed: int,
        threads: int | None = None,
    ):
        if n_particles < 1:
            raise ValueError(f"n_particles must be >= 1, got {n_particles}")
        self.model = model
        self.constraint = constraint
        self.grid = grid
        self.n_particles = n_particles
        self.seed = int(seed)
        self.threads = threads
        self.noise = noise_record(model, grid, n_particles, self.seed)
        if isinstance(model.initial_law, DiracPoint):
            self.U = np.full(n_particles, float(model.initial_law.value))
        else:  # every law's draws are float64; np.array copies them
            u = self.noise.initial_uniforms(np.arange(n_particles))
            self.U = np.array(model.initial_law.from_uniform(u))
        self.tracker = ReflectionTracker()
        self.k = 0
        self._reflect()

    def _reflect(self) -> float:
        """Reflect U into X, keep the constraint statistics, return the increment."""
        evaluator = MeanEvaluator(self.U, self.constraint)
        delta = self.tracker.advance(evaluator.g0())
        sup = self.tracker.running_sup
        self.X = self.U + sup
        self.last_mean_h = evaluator(sup)
        self.last_mean_x = evaluator.atom_mean + sup
        self.last_var_x = float(np.var(self.U))
        return delta

    def _increments(self, x_prev: np.ndarray, step: int) -> np.ndarray:
        model = self.model
        noise = self.noise
        dt = self.grid.dt
        sqrt_dt = math.sqrt(dt)
        out = np.empty(self.n_particles)

        def work(lo: int, hi: int) -> None:
            x = x_prev[lo:hi]
            idx = np.arange(lo, hi)
            g = noise.gaussians(idx, step)
            cells, marks = noise.jumps(idx, step)
            amp = np.broadcast_to(model.jump_amplitude(x[cells], marks), marks.shape)
            jump = np.bincount(cells, amp, hi - lo)  # each cell's marks, left to right
            drift_part = model.drift(x) - model.compensate(x)
            out[lo:hi] = dt * drift_part + sqrt_dt * (model.diffusion(x) * g) + jump

        run_chunked(work, self.n_particles, self.threads)
        return out

    def step(self) -> float:
        """Advance one grid step; returns the reflection increment."""
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
    seed: int,
    observe: Callable[[int, np.ndarray], None] | None = None,
    threads: int | None = None,
) -> TrajectoryRecord:
    """Run the full scheme and collect the per-step series.

    ``observe(k, X)``, when given, is called with the reflected particle
    states after the initial push (k = 0) and after every step k = 1..n.
    ``X`` is the system's own array: read it, copy what must outlive the
    call, and never write to it.
    """
    system = ParticleSystem(model, constraint, grid, n_particles, seed, threads)
    # Rows in TrajectoryRecord field order: k_hat, delta_k, mean_h, mean_x, var_x.
    series = np.empty((5, grid.steps + 1))

    def capture(k: int, delta: float) -> None:
        series[:, k] = (system.tracker.running_sup, delta, system.last_mean_h,
                        system.last_mean_x, system.last_var_x)
        if observe is not None:
            observe(k, system.X)

    # The running sup starts at 0, so the initial push is its own increment.
    capture(0, system.tracker.running_sup)
    for k in range(1, grid.steps + 1):
        capture(k, system.step())
    return TrajectoryRecord(grid.times(), *series, noise=system.noise)
