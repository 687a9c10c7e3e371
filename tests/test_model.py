"""Built-in model factories, constraints, and the validation report."""

import dataclasses
import math

import numpy as np
import pytest

from meanreflect import stochastics as sto
from meanreflect.model import (
    Constraint,
    ModelSpec,
    linear_constraint,
    make_case_i,
    make_case_ii,
    make_case_iii,
    sine_constraint,
    sine_constraint_root,
    validate,
)
from meanreflect.stochastics import CustomSampler, DiracPoint, LogNormal

from conftest import FIG5_P, FIG5_X0

SQRT_E = math.sqrt(math.e)


class TestCaseI:
    def test_fig1_parameters_valid(self):
        spec, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        assert spec.params == {"beta": 2, "a": 0.0, "sigma": 1, "gamma": 0.0, "eta": 1,
                               "theta": 0.0, "lambda": 5, "x0": 1, "p": 0.5}
        assert constraint.kind == "linear"
        assert validate(spec, constraint).ok

    def test_compensator_value(self):
        spec, _ = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        want = 5.0 * SQRT_E  # 8.2436063535006419
        for x in (0.0, 1.0, -3.7):
            assert spec.compensator(x) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(8.2436063535006419, abs=1e-12)

    def test_boundary_initial_condition(self):
        spec, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=0.5, p=0.5)
        assert float(constraint.h(spec.params["x0"])) == 0.0

    def test_rejects_x0_below_p(self):
        with pytest.raises(ValueError, match="x0"):
            make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=0.4, p=0.5)

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError):
            make_case_i(beta=0, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        with pytest.raises(ValueError):
            make_case_i(beta=2, sigma=1, eta=1, lam=0, x0=1, p=0.5)


class TestCaseII:
    def test_fig3_parameters_valid(self):
        spec, constraint = make_case_ii(a=3, gamma=1, theta=1, lam=2, x0=4, p=1)
        assert spec.params == {"beta": 0.0, "a": 3, "sigma": 0.0, "gamma": 1, "eta": 0.0,
                               "theta": 1, "lambda": 2, "x0": 4, "p": 1}
        assert validate(spec, constraint).ok

    def test_onset_time_from_params(self):
        spec, _ = make_case_ii(a=3, gamma=1, theta=1, lam=2, x0=4, p=1)
        p = spec.params
        t_star = (math.log(p["x0"]) - math.log(p["p"])) / p["a"]
        assert t_star == pytest.approx(0.46209812037329684, abs=1e-15)

    def test_boundary_start(self):
        spec, _ = make_case_ii(a=3, gamma=1, theta=1, lam=2, x0=1, p=1)
        p = spec.params
        assert (math.log(p["x0"]) - math.log(p["p"])) / p["a"] == 0.0

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError, match="undefined"):
            make_case_ii(a=3, gamma=1, theta=1, lam=2, x0=4, p=0.0)

    def test_compensator_linear_in_state(self):
        spec, _ = make_case_ii(a=3, gamma=1, theta=1, lam=2, x0=4, p=1)
        x = np.array([0.0, 1.0, 4.0])
        assert np.allclose(spec.compensator(x), 2.0 * 1.0 * x)


class TestCaseIII:
    def test_fig5_parameters_valid(self):
        # x0 sits barely above the constraint root; the initial mean
        # constraint holds even though x0 < |alpha| + p.
        spec, constraint = make_case_iii(
            beta=1e-2, a=1e-2, sigma=1.0, eta=0.1, lam=1.0,
            x0=FIG5_X0, p=FIG5_P, alpha=0.9,
        )
        assert FIG5_X0 < abs(0.9) + FIG5_P
        assert float(constraint.h(FIG5_X0)) > 0.0
        assert validate(spec, constraint).ok

    def test_sine_value_at_threshold(self):
        constraint = sine_constraint(0.9, FIG5_P)
        assert float(constraint.h(FIG5_P)) == pytest.approx(0.9, abs=1e-12)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            make_case_iii(
                beta=1e-2, a=1e-2, sigma=1, eta=0.1, lam=1,
                x0=3.0, p=FIG5_P, alpha=1.0,
            )

    def test_rejects_initial_mean_violation(self):
        with pytest.raises(ValueError, match="h\\(x0\\)"):
            make_case_iii(
                beta=1e-2, a=1e-2, sigma=1, eta=0.1, lam=1,
                x0=FIG5_X0 - 0.2, p=FIG5_P, alpha=0.9,
            )

    def test_alpha_zero_degenerates_to_linear(self):
        sine = sine_constraint(0.0, 0.5)
        line = linear_constraint(0.5)
        x = np.linspace(-5, 5, 101)
        assert np.array_equal(sine.h(x), line.h(x))
        assert sine.m == line.m == 1.0
        assert sine.M == line.M == 1.0

    def test_constraint_root_solves_equation(self):
        root = sine_constraint_root(0.9, FIG5_P)
        assert root + 0.9 * math.sin(root) - FIG5_P == pytest.approx(0.0, abs=1e-12)
        assert root + 0.1 == pytest.approx(FIG5_X0, abs=1e-12)


class TestValidate:
    def test_flags_negative_initial_mean(self):
        spec, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        bad = ModelSpec(
            drift=spec.drift,
            diffusion=spec.diffusion,
            jump_amplitude=spec.jump_amplitude,
            intensity=spec.intensity,
            jump_size_law=spec.jump_size_law,
            initial_law=DiracPoint(-0.5),  # x0 = p - 1
            compensator=spec.compensator,
        )
        report = validate(bad, constraint)
        assert not report.ok
        assert any("h(X0)" in v for v in report.violations)

    def test_flags_wide_sine_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            sine_constraint(1.5, 0.0)
        # Built by hand, this h has no positive lower slope bound and
        # decreases where 1.5 cos(x) < -1.
        spec, _ = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        wide = Constraint(h=lambda x: x + 1.5 * np.sin(x), m=0.0, M=2.5)
        report = validate(spec, wide)
        assert any("0 < m" in v for v in report.violations)
        assert any("not nondecreasing" in v for v in report.violations)

    def test_sampler_initial_law_negative_mean_flagged(self):
        spec, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        shifted = ModelSpec(
            drift=spec.drift,
            diffusion=spec.diffusion,
            jump_amplitude=spec.jump_amplitude,
            intensity=spec.intensity,
            jump_size_law=spec.jump_size_law,
            initial_law=CustomSampler(quantile=lambda u: u - 0.2),  # mean 0.3 < p
            compensator=spec.compensator,
        )
        report = validate(shifted, constraint)
        assert any("h(X0)" in v for v in report.violations)

    def test_lipschitz_spot_check_warns_only(self):
        rough = ModelSpec(
            drift=lambda x: 1e9 * np.sin(1e3 * np.asarray(x)),
            diffusion=lambda x: np.ones_like(np.asarray(x, dtype=np.float64)),
            jump_amplitude=lambda x, z: 0.0 * z,
            intensity=1.0,
            jump_size_law=DiracPoint(1.0),
            initial_law=DiracPoint(1.0),
            compensator=lambda x: 0.0,
        )
        report = validate(rough, linear_constraint(0.0))
        assert report.ok
        assert any("drift" in w for w in report.warnings)

    def test_missing_bounds_warns(self):
        spec, _ = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        free = Constraint(h=lambda x: x, m=None, M=None, kind="custom")
        report = validate(spec, free)
        assert report.ok
        assert any("brackets" in w for w in report.warnings)


class TestMonteCarloAgainstAnalytic:
    """1e6-sample estimate of the jump compensator vs the analytic value."""

    N = 1_000_000

    def _mc(self, spec, x: float) -> tuple[float, float]:
        u = sto.uniforms(
            2718281828, np.arange(self.N), 0, sto.Channel.JUMP_SIZE
        )
        marks = spec.jump_size_law.from_uniform(u)
        vals = np.broadcast_to(
            np.asarray(spec.jump_amplitude(x, marks), dtype=np.float64),
            marks.shape,
        )
        est = spec.intensity * vals.mean()
        se = spec.intensity * vals.std(ddof=1) / math.sqrt(self.N)
        return float(est), float(se)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5),
            lambda: make_case_ii(a=3, gamma=1, theta=1, lam=2, x0=4, p=1),
            lambda: make_case_iii(
                beta=1e-2, a=1e-2, sigma=1, eta=0.1, lam=1,
                x0=FIG5_X0, p=FIG5_P, alpha=0.9,
            ),
        ],
        ids=["case_i", "case_ii", "case_iii"],
    )
    def test_compensator_within_four_se(self, factory):
        spec, _ = factory()
        for x in (0.0, 1.0, spec.params["x0"]):
            est, se = self._mc(spec, x)
            analytic = float(np.asarray(spec.compensator(x)))
            assert abs(est - analytic) <= 4.0 * se + 1e-12

    def test_default_compensator_matches_analytic(self):
        spec = ModelSpec(
            drift=lambda x: 0.0,
            diffusion=lambda x: 1.0,
            jump_amplitude=lambda x, z: z * (1.0 + x),
            intensity=5.0,
            jump_size_law=LogNormal(),
            initial_law=DiracPoint(1.0),
        )
        assert spec.compensator is None
        assert spec.compensate(0.0) == pytest.approx(5.0 * SQRT_E, rel=1e-13)
        out = spec.compensate(np.array([0.0, 1.0]))
        assert out == pytest.approx([5.0 * SQRT_E, 10.0 * SQRT_E], rel=1e-13)

    def test_default_compensator_follows_replace(self):
        spec = ModelSpec(
            drift=lambda x: 0.0,
            diffusion=lambda x: 1.0,
            jump_amplitude=lambda x, z: z,
            intensity=2.0,
            jump_size_law=LogNormal(),
            initial_law=DiracPoint(1.0),
        )
        assert spec.compensate(0.0) == pytest.approx(2.0 * SQRT_E, rel=1e-13)
        dirac = dataclasses.replace(spec, jump_size_law=DiracPoint(1.0))
        assert dirac.compensate(0.0) == 2.0
        busier = dataclasses.replace(spec, intensity=5.0)
        assert busier.compensate(0.0) == pytest.approx(5.0 * SQRT_E, rel=1e-13)


def test_constraint_monotonicity_invariant():
    u = sto.uniforms(424242, np.arange(10_000), 0, sto.Channel.INITIAL)
    v = sto.uniforms(424243, np.arange(10_000), 0, sto.Channel.INITIAL)
    x = np.minimum(u, v) * 100.0 - 50.0
    y = np.maximum(u, v) * 100.0 - 50.0
    for constraint in (linear_constraint(0.7), sine_constraint(0.9, FIG5_P)):
        dh = constraint.h(y) - constraint.h(x)
        gap = y - x
        assert np.all(dh >= -1e-12)
        assert np.all(dh >= constraint.m * gap - 1e-9 * (1.0 + gap))
        assert np.all(dh <= constraint.M * gap + 1e-9 * (1.0 + gap))
