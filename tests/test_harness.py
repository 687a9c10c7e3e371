"""Error estimator, convergence table, regressions, complementarity report."""

import math

import numpy as np
import pytest

from meanreflect.errors import DegenerateAbscissae, ValidationError
from meanreflect.harness import (
    ExperimentConfig,
    build_model,
    convergence_sweep,
    l2_error,
    loglog_fit,
    skorokhod_report,
)
from meanreflect.model import linear_constraint
from meanreflect.oracle import exact_case_i
from meanreflect import harness
from meanreflect.scheme import GridSpec, TrajectoryRecord, simulate
from meanreflect.stochastics import DiracPoint, uniforms, Channel
from meanreflect.model import ModelSpec

FIG1_PARAMS = {
    "beta": 2.0, "sigma": 1.0, "eta": 1.0, "lambda": 5.0, "x0": 1.0, "p": 0.5,
}


def fig1_config(**overrides) -> ExperimentConfig:
    base = dict(
        case="i",
        model_params=FIG1_PARAMS,
        horizon=1.0,
        grid_steps=(50,),
        particles=(400,),
        replications=20,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            fig1_config(replications=0)
        with pytest.raises(ValidationError):
            fig1_config(grid_steps=())

    def test_json_round_trip_shape(self):
        cfg = fig1_config(grid_steps=(50, 100), particles=(200, 400))
        doc = cfg.to_json_dict()
        assert doc["model"]["case"] == "i"
        assert doc["sweep"] == {"n": [50, 100], "N": [200, 400]}
        assert doc["seed"] == 3


class TestBuildModel:
    def test_builtin_cases(self):
        for case, params in (
            ("i", FIG1_PARAMS),
            ("ii", {"a": 3.0, "gamma": 1.0, "theta": 1.0, "lambda": 2.0, "x0": 4.0, "p": 1.0}),
        ):
            cfg = fig1_config(case=case, model_params=params)
            model, constraint = build_model(cfg)
            assert model.case == case
            assert constraint.kind == "linear"

    def test_custom_affine_family(self):
        cfg = fig1_config(
            case="custom",
            model_params={
                "beta": 0.5, "a": 1.0, "sigma": 0.2, "gamma": 0.0,
                "eta": 1.0, "theta": 0.0, "lambda": 2.0, "x0": 1.0,
                "jump": {"law": "lognormal", "location": 0.0, "scale": 1.0},
            },
            constraint_params={"kind": "linear", "p": 0.0},
        )
        model, constraint = build_model(cfg)
        x = np.array([0.0, 2.0])
        assert np.allclose(model.drift(x), -(0.5 + x))
        assert np.allclose(model.compensator(x), 2.0 * math.sqrt(math.e))
        assert constraint.kind == "linear"

    def test_custom_sine_constraint(self):
        cfg = fig1_config(
            case="custom",
            model_params={"lambda": 1.0, "x0": 2.0},
            constraint_params={"kind": "sine", "alpha": 0.3, "p": 0.5},
        )
        _, constraint = build_model(cfg)
        assert constraint.kind == "sine"

    def test_unknown_bits_rejected(self):
        with pytest.raises(ValidationError):
            build_model(fig1_config(case="custom",
                                    model_params={"lambda": 1.0, "x0": 1.0},
                                    constraint_params={"kind": "cubic", "p": 0.0}))
        with pytest.raises(ValidationError):
            build_model(fig1_config(case="iv"))


class TestL2Error:
    def test_zero_noise_model_is_exact(self):
        # Deterministic drift with vanishing volatility and jump sizes: the
        # scheme hits the closed form exactly, so the coupled error is 0.
        model = ModelSpec(
            drift=lambda x: -2.0,
            diffusion=lambda x: 0.0,
            jump_amplitude=lambda x, z: 0.0,
            intensity=1e-12,
            jump_size_law=DiracPoint(1.0),
            initial_law=DiracPoint(1.0),
            compensator=lambda x: 0.0,
        )
        grid = GridSpec(1.0, 100)
        tracked = np.empty(grid.steps + 1)
        traj = simulate(model, linear_constraint(0.5), grid, 64, seed=5,
                        observe=lambda k, X: tracked.__setitem__(k, X[0]))
        params = dict(FIG1_PARAMS, sigma=0.0, eta=0.0)
        path = exact_case_i(traj.noise, params, grid, particle=0)
        err = float(np.max((path.x_exact - tracked) ** 2))
        assert err < 1e-24

    def test_requires_seed(self):
        with pytest.raises(ValidationError):
            l2_error(fig1_config(seed=None))

    def test_case_without_oracle_rejected(self, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "simulate", lambda *a, **k: runs.append(a))
        cfg = fig1_config(
            case="iii",
            model_params={
                "beta": 1e-2, "a": 1e-2, "sigma": 1.0, "eta": 0.1,
                "lambda": 1.0, "x0": 3.0, "p": 1.0, "alpha": 0.5,
            },
        )
        with pytest.raises(ValidationError):
            l2_error(cfg)
        assert runs == []  # rejected before any simulation starts

    def test_decreases_with_more_particles(self):
        # common replication seeds couple the cells, so the ordering is stable
        small = l2_error(fig1_config(particles=(100,)))
        large = l2_error(fig1_config(particles=(1600,)))
        assert large < small

    def test_replication_batch_variance_scaling(self):
        cells = {}
        for L in (6, 24):
            values = [
                l2_error(fig1_config(replications=L, seed=seed,
                                     grid_steps=(20,), particles=(200,)))
                for seed in range(200, 208)
            ]
            cells[L] = float(np.var(values, ddof=1))
        ratio = cells[6] / cells[24]
        assert 4.0 / 2.5 < ratio < 4.0 * 2.5


class TestLogLogFit:
    def test_exact_line(self):
        pts = [(x, math.exp(3.0) * x**-1.0) for x in (1.0, 2.0, 4.0, 8.0)]
        reg = loglog_fit(pts)
        assert reg.slope == pytest.approx(-1.0, abs=1e-12)
        assert reg.intercept == pytest.approx(3.0, abs=1e-12)
        assert reg.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_two_points_interpolate(self):
        reg = loglog_fit([(1.0, 1.0), (10.0, 0.1)])
        assert reg.slope == pytest.approx(-1.0, abs=1e-12)
        assert reg.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_inverse_law(self):
        ns = np.array([100.0 * 2**k for k in range(8)])
        u = uniforms(77, np.arange(8), 0, Channel.INITIAL)
        noisy = (5.0 / ns) * (1.0 + 0.05 * (2.0 * u - 1.0))
        reg = loglog_fit(list(zip(ns, noisy)))
        assert -1.1 < reg.slope < -0.9

    def test_degenerate_abscissae(self):
        with pytest.raises(DegenerateAbscissae):
            loglog_fit([(2.0, 1.0), (2.0, 3.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            loglog_fit([(1.0, 0.0), (2.0, 1.0)])


class TestConvergenceSweep:
    def test_single_cell_has_no_regression(self):
        table = convergence_sweep(fig1_config(replications=3))
        assert len(table.rows) == 1
        assert table.regression_in_particles == {}
        assert table.regression_in_steps == {}
        assert table.rows[0].e_hat >= 0.0
        assert table.rows[0].runtime_sec > 0.0

    def test_rows_sorted_and_regressions_present(self):
        cfg = fig1_config(
            replications=8, grid_steps=(20, 40), particles=(100, 200)
        )
        table = convergence_sweep(cfg)
        assert [(r.n, r.N) for r in table.rows] == [
            (20, 100), (20, 200), (40, 100), (40, 200),
        ]
        assert set(table.regression_in_particles) == {20, 40}
        assert set(table.regression_in_steps) == {100, 200}


class TestSkorokhodReport:
    def synthetic(self, mean_h, delta_k) -> TrajectoryRecord:
        n = len(mean_h)
        return TrajectoryRecord(
            times=np.linspace(0.0, 1.0, n),
            k_hat=np.cumsum(delta_k),
            delta_k=np.asarray(delta_k, dtype=np.float64),
            mean_h=np.asarray(mean_h, dtype=np.float64),
            mean_x=np.zeros(n),
            var_x=np.zeros(n),
        )

    def test_all_zero_on_still_run(self):
        traj = self.synthetic([0.5, 0.5, 0.5], [0.0, 0.0, 0.0])
        report = skorokhod_report(traj)
        assert report.worst_negative_mean_h == 0.0
        assert report.worst_active_mean_h == 0.0
        assert report.active_fraction == 0.0

    def test_detects_missing_reflection(self):
        # negative drift with the reflection disabled: violation shows up
        traj = self.synthetic([0.2, -0.3, -0.8], [0.0, 0.0, 0.0])
        report = skorokhod_report(traj)
        assert report.worst_negative_mean_h == pytest.approx(0.8)

    def test_detects_sloppy_active_steps(self):
        traj = self.synthetic([0.0, 1e-3, 0.0], [0.0, 0.5, 0.0])
        report = skorokhod_report(traj)
        assert report.worst_active_mean_h == pytest.approx(1e-3)
        assert report.active_fraction == 0.5

    def test_fig1_active_fraction(self):
        cfg = fig1_config()
        model, constraint = build_model(cfg)
        traj = simulate(model, constraint, GridSpec(1.0, 200), 5000, seed=1)
        report = skorokhod_report(traj)
        # reflection turns on near t = (x0 - p)/beta = 0.25
        assert 0.65 < report.active_fraction < 0.85
