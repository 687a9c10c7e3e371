"""Error estimator, convergence table, regressions, complementarity report."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from meanreflect.oracle import CASES, exact_case_i
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


COUNTS = st.integers(1, 2**32 - 1)
MENUS = st.lists(COUNTS, min_size=1, max_size=3).map(tuple)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def configs(draw):
    """Any valid ExperimentConfig, built the way Python callers build one."""
    case = draw(st.sampled_from([*CASES, "custom"]))
    constraint = None
    if case == "custom":
        names = ["lambda", "x0", *draw(st.lists(st.sampled_from(
            ["beta", "a", "sigma", "gamma", "eta", "theta"]), unique=True))]
        params = {name: draw(FINITE) for name in names}
        params["jump"] = draw(st.sampled_from([
            {"law": "lognormal", "location": draw(FINITE), "scale": draw(FINITE)},
            {"law": "dirac", "value": draw(FINITE)},
        ]))
        constraint = draw(st.sampled_from([
            {"kind": "linear", "p": draw(FINITE)},
            {"kind": "sine", "alpha": draw(FINITE), "p": draw(FINITE)},
        ]))
    else:
        params = {name: draw(FINITE) for name in CASES[case].params}
    return ExperimentConfig(
        case=case,
        model_params=params,
        horizon=draw(st.floats(min_value=1e-300, allow_infinity=False)),
        grid_steps=draw(MENUS),
        particles=draw(MENUS),
        replications=draw(COUNTS),
        seed=draw(st.none() | st.integers(0, 2**64 - 1)),
        constraint_params=constraint,
        base_steps=draw(st.none() | COUNTS),
        base_particles=draw(st.none() | COUNTS),
    )


FULL_CUSTOM_DOC = {
    "model": {"case": "custom", "beta": 0.5, "a": 1.0, "sigma": 0.3, "gamma": 0.1,
              "eta": 0.2, "theta": 0.1, "lambda": 2.0, "x0": 1.0,
              "jump": {"law": "lognormal", "location": 0.0, "scale": 0.5}},
    "constraint": {"kind": "sine", "alpha": 0.5, "p": 0.8},
    "grid": {"T": 1.0, "n": 20},
    "particles": 200,
    "replications": 4,
    "seed": 7,
    "sweep": {"n": [10, 20], "N": [100, 200]},
}
FULL_BUILTIN_DOC = {
    "model": {"case": "i", **FIG1_PARAMS},
    "grid": {"T": 1.0, "n": 20},
    "particles": 200,
}

# Junk no field accepts; its strings spell no case, law or constraint kind.
_JUNK = st.one_of(
    st.booleans(),
    st.text(alphabet="xyz", max_size=3),
    st.lists(st.booleans(), max_size=2),
)
_BAD_NUMBER = st.one_of(
    _JUNK, st.none(), st.dictionaries(st.just("x"), st.integers()),
    st.integers(min_value=2**1024), st.integers(max_value=-(2**1024)),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
_BAD_COUNT = st.one_of(
    _BAD_NUMBER, st.integers(max_value=0), st.integers(min_value=2**32), st.floats()
)
_BAD_SEED = st.one_of(
    _JUNK, st.floats(), st.integers(max_value=-1), st.integers(min_value=2**64)
)
_BAD_MENU = st.one_of(
    _JUNK, st.integers(), st.just([]), st.lists(_BAD_COUNT, min_size=1, max_size=2)
)
_BAD_OBJECT = _JUNK | st.none() | st.integers()

# JSON path -> values that must be rejected there. ``None`` is absent from
# the optional fields, where it means "not given".
BAD_VALUES = {
    ("model",): _BAD_OBJECT,
    ("model", "case"): _BAD_OBJECT,
    ("grid",): _BAD_OBJECT,
    ("grid", "T"): _BAD_NUMBER | st.floats(max_value=0.0),
    ("grid", "n"): _BAD_COUNT,
    ("particles",): _BAD_COUNT,
    ("replications",): _BAD_COUNT,
    ("seed",): _BAD_SEED,
    ("sweep",): _JUNK | st.integers(),
    ("sweep", "n"): _BAD_MENU,
    ("sweep", "N"): _BAD_MENU,
    ("constraint",): (_JUNK | st.integers()
                      | st.dictionaries(st.just("x"), st.integers())),
    ("constraint", "kind"): _BAD_OBJECT,
    ("constraint", "alpha"): _BAD_NUMBER,
    ("constraint", "p"): _BAD_NUMBER,
    ("model", "jump"): _BAD_OBJECT,
    ("model", "jump", "law"): _BAD_OBJECT,
    ("model", "jump", "scale"): _BAD_NUMBER,
    **{("model", name): _BAD_NUMBER for name in (*FIG1_PARAMS, "a", "gamma", "theta")},
}


def _settable(doc, path) -> bool:
    """Whether ``doc`` has the field at ``path``. Top-level fields always
    count: a seed or sweep may be added, and so may a constraint, which a
    built-in case does not take."""
    for key in path[:-1]:
        doc = doc.get(key, {})
    return len(path) == 1 or (isinstance(doc, dict) and path[-1] in doc)


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

    @pytest.mark.parametrize("overrides", [
        {"model_params": {k: v for k, v in FIG1_PARAMS.items() if k != "beta"}},
        {"case": "custom", "model_params": {"lambda": 1.0, "x0": 1.0, "jump": 5},
         "constraint_params": {"kind": "linear", "p": 0.5}},
        {"model_params": dict(FIG1_PARAMS, beta=True)},
        {"grid_steps": (10**30,)},
        {"base_particles": 2**32},
        {"seed": -1},
        {"seed": 2**64},
    ], ids=["missing_param", "int_jump", "bool_beta", "huge_n", "particles_2_32",
            "negative_seed", "seed_2_64"])
    def test_python_built_config_is_checked(self, overrides):
        """Configs built in Python get the checks JSON configs get."""
        with pytest.raises(ValidationError):
            fig1_config(**overrides)

    def test_one_cell_sweep_kept_in_json(self):
        cfg = fig1_config(grid_steps=(5,), particles=(10,),
                          base_steps=40, base_particles=500)
        back = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert (back.grid_steps, back.particles) == ((5,), (10,))
        assert (back.single_grid().steps, back.single_particle_count()) == (40, 500)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_json_round_trip(self, data):
        """from_json_dict inverts to_json_dict, also through JSON text."""
        cfg = data.draw(configs())
        back = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert back.case == cfg.case
        assert back.model_params == cfg.model_params
        assert back.constraint_params == cfg.constraint_params
        assert back.horizon == cfg.horizon
        assert (back.grid_steps, back.particles) == (cfg.grid_steps, cfg.particles)
        assert back.single_grid() == cfg.single_grid()
        assert back.single_particle_count() == cfg.single_particle_count()
        assert back.replications == cfg.replications
        assert back.seed == cfg.seed

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bad_field_raises_validation_error(self, data):
        """A bad value in any one field raises ValidationError, nothing else."""
        base = data.draw(st.sampled_from([FULL_CUSTOM_DOC, FULL_BUILTIN_DOC]))
        path = data.draw(st.sampled_from(sorted(
            p for p in BAD_VALUES if _settable(base, p)
        )))
        doc = copy.deepcopy(base)
        *parents, leaf = path
        target = doc
        for key in parents:
            target = target[key]
        target[leaf] = data.draw(BAD_VALUES[path])
        with pytest.raises(ValidationError):
            ExperimentConfig.from_json_dict(doc)


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
