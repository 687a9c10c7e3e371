"""The four benchmark workloads, each a figure config of the paper.

A workload is built from a seed (``build``) and run (``run``); a run
returns its output series and the results of its correctness checks.
``build`` is what set-up time measures, so this module imports
neither numpy nor meanreflect at module level: the first ``build`` in a
process pays for those imports. Every call goes through the public
``meanreflect`` package, looked up at call time so that a tracer's wrappers
are seen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

# Model sections of configs/fig1.json (also the fig2.json model) and
# configs/fig5.json, pinned here so that editing a config does not move the
# benchmark; the self-test checks that they still agree.
FIG1_MODEL = {"case": "i", "beta": 2.0, "sigma": 1.0, "eta": 1.0, "lambda": 5.0,
              "x0": 1.0, "p": 0.5}
FIG5_MODEL = {"case": "iii", "beta": 0.01, "a": 0.01, "sigma": 1.0, "eta": 0.1,
              "lambda": 1.0, "x0": 0.97817754723285288, "p": 1.5707963267948966,
              "alpha": 0.9}


@dataclass
class Outcome:
    """What one run of a workload produced."""

    series: object  # the float64 array whose digest witnesses the output
    checks: dict  # name -> (value, passed)

    def digest(self) -> str:
        import numpy as np

        data = np.ascontiguousarray(self.series, dtype="<f8")
        return hashlib.sha256(data.tobytes()).hexdigest()

    def failures(self) -> list[str]:
        return [f"{name}={value!r}" for name, (value, ok) in self.checks.items() if not ok]


def _config(model, horizon, steps, particles, seed, replications=1):
    import meanreflect as mr

    params = {k: v for k, v in model.items() if k != "case"}
    return mr.ExperimentConfig(
        case=model["case"], model_params=params, horizon=horizon,
        grid_steps=(steps,), particles=tuple(particles),
        replications=replications, seed=seed,
    )


def _complementarity(trajectory):
    import meanreflect as mr

    report = mr.skorokhod_report(trajectory)
    return {
        "worst_negative_mean_h": (report.worst_negative_mean_h,
                                  report.worst_negative_mean_h <= 1e-8),
        "worst_active_mean_h": (report.worst_active_mean_h,
                                report.worst_active_mean_h <= 1e-8),
    }


@dataclass(frozen=True)
class Workload:
    """A pinned problem size; ``toy`` shrinks it for warm-up and self-test.

    ``particles`` lists one count, or the sweep menu for ``fig2_sweep``.
    """

    name: str
    why: str
    model: dict
    horizon: float
    steps: int
    particles: tuple
    replications: int = 1

    def toy(self) -> "Workload":
        return replace(self, steps=min(self.steps, 20),
                       particles=tuple(min(n, 200 + 100 * i) for i, n in enumerate(self.particles)),
                       replications=min(self.replications, 3))

    @property
    def particle_steps(self) -> int:
        """Particle-steps one run advances: L * N * n summed over the cells."""
        return self.replications * sum(self.particles) * self.steps

    def describe(self) -> str:
        sizes = f"T={self.horizon:g} n={self.steps} N={','.join(map(str, self.particles))}"
        if self.replications > 1:
            sizes += f" L={self.replications}"
        return sizes

    def build(self, seed: int):
        import meanreflect as mr

        config = _config(self.model, self.horizon, self.steps, self.particles, seed)
        model, constraint = mr.build_model(config)
        return config, model, constraint

    def run(self, state, threads=None) -> Outcome:
        raise NotImplementedError


class CloudRun(Workload):
    """One ``simulate`` of case i; checks K_hat(T) against the exact 1.5."""

    def run(self, state, threads=None):
        import meanreflect as mr

        config, model, constraint = state
        grid = config.single_grid()
        n_particles = config.single_particle_count()
        traj = mr.simulate(model, constraint, grid, n_particles, config.seed,
                           threads=threads)
        k_exact = float(mr.exact_k_path("i", model.params, grid)[-1])
        gap = abs(float(traj.k_hat[-1]) - k_exact)
        checks = {"abs_gap_K_T": (gap, gap <= 0.05), **_complementarity(traj)}
        return Outcome(traj.k_hat, checks)


class SineRun(Workload):
    """One ``simulate`` of case iii plus its semi-analytic reference K."""

    def run(self, state, threads=None):
        import numpy as np
        import meanreflect as mr

        config, model, constraint = state
        grid = config.single_grid()
        n_particles = config.single_particle_count()
        traj = mr.simulate(model, constraint, grid, n_particles, config.seed,
                           threads=threads)
        reference = mr.exact_case_iii_K(model.params, grid).k_exact
        gap = float(np.max(np.abs(traj.k_hat - reference)) / np.max(np.abs(reference)))
        checks = {"rel_sup_gap_K": (gap, gap <= 0.15), **_complementarity(traj)}
        return Outcome(traj.k_hat, checks)


class Sweep(Workload):
    """``convergence_sweep`` over the particle menu at one grid size."""

    def build(self, seed):
        return _config(self.model, self.horizon, self.steps, self.particles, seed,
                       self.replications)

    def run(self, state, threads=None):
        import numpy as np
        import meanreflect as mr

        table = mr.convergence_sweep(state, threads=threads)
        e_hat = np.array([row.e_hat for row in table.rows])
        slope = table.regression_in_particles[self.steps].slope
        decays = bool(e_hat[-1] < e_hat[0])
        checks = {
            "E_hat_decays": (decays, decays),
            "loglog_slope": (slope, -1.4 <= slope <= -0.6),
        }
        return Outcome(e_hat, checks)


class DensityRun(Workload):
    """``density_series`` of case i; the exact density is beta = 2 after t*."""

    def run(self, state, threads=None):
        import numpy as np
        import meanreflect as mr

        config, model, constraint = state
        grid = config.single_grid()
        n_particles = config.single_particle_count()
        times, k_hat = mr.density_series(model, constraint, grid, n_particles,
                                         config.seed, threads=threads)
        k_path = mr.exact_k_path("i", model.params, grid)
        total = float(np.sum(k_hat) * grid.dt)
        rel = abs(total / float(k_path[-1]) - 1.0)
        late = float(np.mean(np.abs(k_hat[times >= 0.4] - model.params["beta"])))
        checks = {
            "rel_gap_integral": (rel, rel <= 0.05),
            "mean_abs_gap_late": (late, late <= 0.2),
        }
        return Outcome(k_hat, checks)


WORKLOADS = {
    w.name: w
    for w in (
        CloudRun(
            "fig1_cloud",
            "fig1 case i, N=1e5 n=100: lane throughput of the Philox noise and "
            "run_chunked splitting; the linear reflection is nearly free",
            FIG1_MODEL, 1.0, 100, (100_000,),
        ),
        SineRun(
            "fig5_sine",
            "fig5 case iii, T=15 n=1000 N=2e4: per-step fixed costs, O(N) sine "
            "reflection terms, hashed Dirac marks, a thread pool per step",
            FIG5_MODEL, 15.0, 1000, (20_000,),
        ),
        Sweep(
            "fig2_sweep",
            "fig2 convergence sweep, n=100 N in {100,400,1000} L=20: per-call "
            "overhead on tiny arrays in harness, oracle replay and noise",
            FIG1_MODEL, 1.0, 100, (100, 400, 1000), 20,
        ),
        DensityRun(
            "fig1_density",
            "fig1 density_series, N=1e5 n=100: the only caller of density_k and "
            "of the second stepping loop",
            FIG1_MODEL, 1.0, 100, (100_000,),
        ),
    )
}
