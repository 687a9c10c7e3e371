"""Particle scheme: stepping, coupling identity, reductions, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from meanreflect.errors import NonFiniteState
from meanreflect.model import (
    ModelSpec,
    affine_model,
    linear_constraint,
    make_case_i,
    make_case_ii,
    make_case_iii,
    validate,
)
from meanreflect.scheme import (
    GridSpec,
    ParticleSystem,
    simulate,
)
from meanreflect.stochastics import CustomSampler, DiracPoint, LogNormal

SQRT_E = math.sqrt(math.e)


def still_model(x0: float = 1.0) -> ModelSpec:
    """Zero drift, zero volatility, zero jump amplitude."""
    return ModelSpec(
        drift=lambda x: 0.0,
        diffusion=lambda x: 0.0,
        jump_amplitude=lambda x, z: 0.0,
        intensity=1e-9,
        jump_size_law=DiracPoint(1.0),
        initial_law=DiracPoint(x0),
        compensator=lambda x: 0.0,
    )


def drift_only_model(beta: float, x0: float) -> ModelSpec:
    return ModelSpec(
        drift=lambda x: -beta,
        diffusion=lambda x: 0.0,
        jump_amplitude=lambda x, z: 0.0,
        intensity=1e-9,
        jump_size_law=DiracPoint(1.0),
        initial_law=DiracPoint(x0),
        compensator=lambda x: 0.0,
    )


def _increments_reference(system: ParticleSystem, step: int) -> np.ndarray:
    """The original increment: one masked pass per mark rank j < counts.max(),
    adding mark j of every particle that has one. Kept as the oracle."""
    model, noise, x = system.model, system.noise, system.X
    dt, idx = system.grid.dt, np.arange(system.n_particles)
    g = noise.gaussians(idx, step)
    counts = noise.counts(idx, step)
    jump = np.zeros(system.n_particles)
    for j in range(int(counts.max())):
        mask = counts > j
        marks = noise.marks(idx[mask], step, j)
        jump[mask] += model.jump_amplitude(x[mask], marks)
    drift_part = model.drift(x) - model.compensate(x)
    return dt * drift_part + math.sqrt(dt) * (model.diffusion(x) * g) + jump


# lambda * dt = 3 on GridSpec(0.25, 5): most particles draw several marks a step.
MANY_MARKS = {
    "lognormal-theta": affine_model(60.0, 1.0, LogNormal(0.0, 0.5), beta=0.5, a=1.0,
                                    sigma=0.3, eta=0.2, theta=0.1),
    "scalar-amplitude": dataclasses.replace(still_model(), intensity=60.0,
                                            jump_amplitude=lambda x, z: 0.25,
                                            jump_size_law=LogNormal(0.0, 0.5)),
}


class TestGridSpec:
    def test_times_and_dt(self):
        grid = GridSpec(2.0, 4)
        assert grid.dt == 0.5
        assert np.array_equal(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 10)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0)


class TestInit:
    def test_dirac_start_constraint_satisfied(self):
        system = ParticleSystem(
            still_model(1.0), linear_constraint(0.5), GridSpec(1.0, 10), 100, seed=1
        )
        assert system.running_sup == 0.0
        assert np.all(system.X == 1.0)

    def test_dirac_start_on_boundary(self):
        system = ParticleSystem(
            still_model(0.5), linear_constraint(0.5), GridSpec(1.0, 10), 100, seed=1
        )
        assert system.running_sup == 0.0

    def test_sampler_start_below_boundary_pushes(self):
        p = 0.5
        model = ModelSpec(
            drift=lambda x: 0.0,
            diffusion=lambda x: 0.0,
            jump_amplitude=lambda x, z: 0.0,
            intensity=1e-9,
            jump_size_law=DiracPoint(1.0),
            initial_law=CustomSampler(quantile=lambda u: p - 2.0 + u),
            compensator=lambda x: 0.0,
        )
        system = ParticleSystem(
            model, linear_constraint(p), GridSpec(1.0, 10), 500, seed=3
        )
        want = p - system.U.mean()  # closed-form push on the drawn atoms
        assert want > 0
        assert system.running_sup == pytest.approx(want, abs=1e-12)

    def test_lognormal_initial_law_drawn_from_initial_channel(self):
        model, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        model = dataclasses.replace(model, initial_law=LogNormal(0.0, 0.5))
        assert validate(model, constraint).ok
        seen = {}
        traj = simulate(
            model, constraint, GridSpec(1.0, 5), 300, seed=4,
            observe=lambda k, X: seen.setdefault(k, X.copy()),
        )
        want = LogNormal(0.0, 0.5).from_uniform(traj.noise.initial_uniforms(np.arange(300)))
        assert np.array_equal(seen[0], want + traj.k_hat[0])


class TestStep:
    def test_still_dynamics_never_reflect(self):
        traj = simulate(
            still_model(1.0), linear_constraint(0.5), GridSpec(1.0, 50), 200, seed=2
        )
        assert np.all(traj.k_hat == 0.0)
        assert np.all(traj.delta_k == 0.0)
        assert np.all(traj.mean_x == 1.0)

    def test_one_step_mean_increment_case_i(self):
        # Expected increment is -beta*dt: the compensator drift removes
        # lam*eta*sqrt(e)*dt and the jump sum restores it in expectation.
        model, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        grid = GridSpec(1.0, 500)
        system = ParticleSystem(model, constraint, grid, 100_000, seed=5)
        before = system.U.copy()
        system.step()
        incr = system.U - before
        per_var = grid.dt * (1.0 + 5.0 * math.e**2)
        se = math.sqrt(per_var / 100_000)
        assert abs(incr.mean() - (-2.0 * grid.dt)) < 4.0 * se

    def test_pure_drift_reproduces_closed_form(self):
        beta, x0, p = 2.0, 1.0, 0.5
        grid = GridSpec(1.0, 100)
        traj = simulate(
            drift_only_model(beta, x0), linear_constraint(p), grid, 10, seed=3
        )
        want_k = np.maximum(0.0, p + beta * traj.times - x0)
        assert np.max(np.abs(traj.k_hat - want_k)) < 1e-12
        want_x = np.maximum(x0 - beta * traj.times, p)
        assert np.max(np.abs(traj.mean_x - want_x)) < 1e-12

    def test_grid_exhaustion_raises(self):
        system = ParticleSystem(
            still_model(), linear_constraint(0.0), GridSpec(1.0, 1), 10, seed=1
        )
        system.step()
        with pytest.raises(ValueError, match="exhausted"):
            system.step()

    def test_non_finite_state_detected(self):
        exploding = ModelSpec(
            drift=lambda x: np.where(np.asarray(x) > 0, np.inf, 0.0),
            diffusion=lambda x: 0.0,
            jump_amplitude=lambda x, z: 0.0,
            intensity=1e-9,
            jump_size_law=DiracPoint(1.0),
            initial_law=DiracPoint(1.0),
            compensator=lambda x: 0.0,
        )
        system = ParticleSystem(
            exploding, linear_constraint(0.0), GridSpec(1.0, 10), 10, seed=1
        )
        with pytest.raises(NonFiniteState):
            system.step()


class TestJumpSum:
    @pytest.mark.parametrize("n_particles, threads", [(50, 1), (20_000, 1), (20_000, 2)])
    @pytest.mark.parametrize("name", sorted(MANY_MARKS))
    def test_increments_match_masked_passes(self, name, n_particles, threads):
        system = ParticleSystem(MANY_MARKS[name], linear_constraint(0.5),
                                GridSpec(0.25, 5), n_particles, seed=3, threads=threads)
        for step in range(1, 6):
            counts = system.noise.counts(np.arange(n_particles), step)
            assert (counts >= 3).mean() > 0.5
            got = system._increments(system.X, step)
            assert np.array_equal(got, _increments_reference(system, step)), step
            system.step()


class TestSimulate:
    def test_single_step_equals_step_call(self):
        model, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        grid = GridSpec(0.01, 1)
        traj = simulate(model, constraint, grid, 500, seed=11)
        system = ParticleSystem(model, constraint, grid, 500, seed=11)
        delta = system.step()
        assert traj.delta_k[1] == delta
        assert traj.k_hat[1] == system.running_sup
        assert traj.mean_h[1] == system.last_mean_h

    def test_coupling_identity_exact(self):
        model, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        system = ParticleSystem(model, constraint, GridSpec(1.0, 20), 300, seed=4)
        for _ in range(20):
            system.step()
            gap = system.X - (system.U + system.running_sup)
            assert np.max(np.abs(gap)) == 0.0

    def test_same_seed_bitwise_reproducible(self):
        model, constraint = make_case_ii(a=3, gamma=1, theta=1, lam=2, x0=4, p=1)
        grid = GridSpec(1.0, 30)
        a = simulate(model, constraint, grid, 400, seed=8)
        b = simulate(model, constraint, grid, 400, seed=8)
        assert np.array_equal(a.k_hat, b.k_hat)
        assert np.array_equal(a.mean_h, b.mean_h)
        assert np.array_equal(a.var_x, b.var_x)

    def test_thread_count_invariance(self):
        model, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        grid = GridSpec(1.0, 10)
        one = simulate(model, constraint, grid, 20_000, seed=8, threads=1)
        four = simulate(model, constraint, grid, 20_000, seed=8, threads=4)
        assert np.array_equal(one.k_hat, four.k_hat)
        assert np.array_equal(one.mean_h, four.mean_h)

    @pytest.mark.parametrize("n_particles, threads", [(40, 1), (9000, 1), (9000, 2)])
    @pytest.mark.parametrize("name", ["case-i", "case-iii", "many-marks", "bisection"])
    def test_batch_rows_are_separate_runs(self, name, n_particles, threads):
        # row r of a batch is the run with seed r, bit for bit: the observed
        # clouds and every series, also when the batch (not a row) is chunked
        model, constraint = {
            "case-i": make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.9),
            "case-iii": make_case_iii(beta=0.3, a=0.7, sigma=0.6, eta=0.45, lam=1.9,
                                      x0=1.2, p=1.75, alpha=0.6),
            "many-marks": (MANY_MARKS["lognormal-theta"], linear_constraint(0.95)),
            "bisection": (dataclasses.replace(MANY_MARKS["scalar-amplitude"],
                                              initial_law=LogNormal(0.0, 0.5)),
                          dataclasses.replace(linear_constraint(1.2), kind="custom")),
        }[name]
        grid = GridSpec(0.25, 5)
        seeds = [7, 2**64 - 1, 12345]

        def run(seed):
            seen = []
            traj = simulate(model, constraint, grid, n_particles, seed, threads=threads,
                            observe=lambda k, X: seen.append(X.copy()))
            return traj, np.array(seen)

        batch, clouds = run(seeds)
        assert clouds.shape == (grid.steps + 1, len(seeds), n_particles)
        for row, seed in enumerate(seeds):
            single, cloud = run(seed)
            assert np.array_equal(clouds[:, row], cloud)
            for field in ("k_hat", "delta_k", "mean_h", "mean_x", "var_x"):
                assert np.array_equal(getattr(batch, field)[row], getattr(single, field))
        assert np.all(batch.k_hat[:, -1] > 0.0)  # every row reflects

    def test_batch_needs_a_seed(self):
        model, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        with pytest.raises(ValueError, match="at least one seed"):
            ParticleSystem(model, constraint, GridSpec(1.0, 5), 10, seed=[])

    def test_k_hat_monotone_and_complementary(self):
        model, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        traj = simulate(model, constraint, GridSpec(1.0, 200), 2000, seed=6)
        assert np.all(np.diff(traj.k_hat) >= 0.0)
        norm = 1.0 + np.abs(traj.mean_x)
        assert np.all(traj.mean_h >= -1e-8 * norm)
        active = traj.delta_k > 2e-12
        assert np.all(np.abs(traj.mean_h[active]) <= 1e-8 * norm[active])

    def test_snapshots_and_tracking(self):
        # the observer sees the cloud after the initial push and every step
        model, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        grid = GridSpec(1.0, 10)
        snapshots = {}
        traj = simulate(
            model, constraint, grid, 50, seed=9,
            observe=lambda k, X: snapshots.__setitem__(k, X.copy()),
        )
        assert list(snapshots) == list(range(11))
        assert snapshots[10].shape == (50,)
        assert snapshots[0][7] == 1.0
        assert np.allclose([snapshots[k].mean() for k in range(11)], traj.mean_x)
        # observing leaves the run itself untouched
        plain = simulate(model, constraint, grid, 50, seed=9)
        assert np.array_equal(plain.k_hat, traj.k_hat)
        assert np.array_equal(plain.delta_k, traj.delta_k)

    def test_holder_growth_stable_across_refinements(self):
        model, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        ratios = []
        for n in (100, 200, 400):
            traj = simulate(model, constraint, GridSpec(1.0, n), 2000, seed=13)
            t = traj.times
            diffs = np.abs(traj.k_hat[None, :] - traj.k_hat[:, None])
            gaps = np.abs(t[None, :] - t[:, None])
            mask = gaps > 0
            ratios.append(float(np.max(diffs[mask] / np.sqrt(gaps[mask]))))
        assert max(ratios) <= 2.0 * min(ratios)

    def test_second_moment_stable_in_particle_count(self):
        model, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        sups = []
        for n_particles, seed in ((500, 21), (2000, 22)):
            grid = GridSpec(1.0, 50)
            system = ParticleSystem(model, constraint, grid, n_particles, seed)
            running = np.abs(system.X)
            for _ in range(grid.steps):
                system.step()
                running = np.maximum(running, np.abs(system.X))
            sups.append(float(np.mean(running**2)))
        assert all(np.isfinite(sups))
        assert 0.5 < sups[0] / sups[1] < 2.0

    def test_omitted_compensator_gives_analytic_k_hat(self):
        # case i with its compensator omitted: ModelSpec takes lam * E[eta Z]
        # by the lognormal Gauss-Hermite rule in place of lam * eta * sqrt(e)
        analytic, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        default = dataclasses.replace(analytic, compensator=None)
        grid = GridSpec(1.0, 5)
        want = simulate(analytic, constraint, grid, 2000, seed=3).k_hat
        got = simulate(default, constraint, grid, 2000, seed=3).k_hat
        assert np.max(np.abs(got - want)) <= 1e-12
