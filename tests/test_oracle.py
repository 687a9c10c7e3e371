"""Reference solutions: closed forms, coupled noise, reflection density."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad, solve_ivp
from scipy.optimize import bisect

from meanreflect.errors import DerivativesMissing, NoiseMismatch, ValidationError
from meanreflect import oracle
from meanreflect.model import (
    Constraint,
    ModelSpec,
    affine_model,
    linear_constraint,
    make_case_i,
    make_case_ii,
    make_case_iii,
    sine_constraint,
)
from meanreflect.oracle import (
    _jump_generator_term,
    coupled_path,
    density_k,
    density_series,
    exact_case_i,
    exact_case_ii,
    exact_case_iii_K,
    exact_k_path,
    mean_y,
    reference_path,
)
from meanreflect.scheme import GridSpec, simulate
from meanreflect.stochastics import DiracPoint, LogNormal, NoiseRecord

from conftest import FIG5_P, FIG5_X0

SQRT_E = math.sqrt(math.e)

FIG1 = {"beta": 2.0, "sigma": 1.0, "eta": 1.0, "lambda": 5.0, "x0": 1.0, "p": 0.5}
FIG3 = {"a": 3.0, "gamma": 1.0, "theta": 1.0, "lambda": 2.0, "x0": 4.0, "p": 1.0}
FIG5 = {
    "beta": 1e-2, "a": 1e-2, "sigma": 1.0, "eta": 0.1, "lambda": 1.0,
    "x0": FIG5_X0, "p": FIG5_P, "alpha": 0.9,
}


def by_parts(t, kbar, a):
    """K = int e^{-as} dkbar_s = e^{-at} kbar_t + a int_0^t e^{-as} kbar_s ds,
    the time integral by the trapezoid rule."""
    pushed = np.exp(-a * t) * kbar
    return pushed + a * cumulative_trapezoid(pushed, t, initial=0.0)


def make_noise(seed: int, grid: GridSpec, n_particles: int, lam: float, law) -> NoiseRecord:
    return NoiseRecord(
        seed=seed, n_steps=grid.steps, n_particles=n_particles,
        jump_mean=lam * grid.dt, jump_law=law,
    )


class TestCaseI:
    def test_time_zero(self):
        grid = GridSpec(1.0, 100)
        noise = make_noise(1, grid, 4, FIG1["lambda"], LogNormal())
        path = exact_case_i(noise, FIG1, grid)
        assert path.k_exact[0] == 0.0
        assert path.x_exact[0] == FIG1["x0"]

    def test_fig1_final_reflection(self):
        grid = GridSpec(1.0, 500)
        noise = make_noise(1, grid, 4, FIG1["lambda"], LogNormal())
        path = exact_case_i(noise, FIG1, grid)
        assert path.k_exact[-1] == 1.5  # (p + beta*T - x0)^+

    def test_deterministic_reduction(self):
        params = dict(FIG1, sigma=0.0, eta=0.0)
        grid = GridSpec(1.0, 200)
        noise = make_noise(2, grid, 4, FIG1["lambda"], LogNormal())
        path = exact_case_i(noise, params, grid)
        want = np.maximum(params["x0"] - params["beta"] * path.times, params["p"])
        assert np.max(np.abs(path.x_exact - want)) < 1e-12

    def test_coupled_noise_contract(self):
        grid = GridSpec(1.0, 50)
        a = exact_case_i(make_noise(5, grid, 4, 5.0, LogNormal()), FIG1, grid)
        b = exact_case_i(make_noise(5, grid, 4, 5.0, LogNormal()), FIG1, grid)
        c = exact_case_i(make_noise(6, grid, 4, 5.0, LogNormal()), FIG1, grid)
        assert np.array_equal(a.x_exact, b.x_exact)
        assert not np.array_equal(a.x_exact, c.x_exact)

    def test_jump_path_sums_each_step_left_to_right(self):
        # lambda * dt = 4: most steps of a particle sum three or more marks.
        params = {**FIG1, "lambda": 80.0}
        beta, sigma, eta, lam, x0 = (params[k] for k in ("beta", "sigma", "eta", "lambda", "x0"))
        grid = GridSpec(1.0, 20)
        steps = np.arange(1, grid.steps + 1)
        noise = make_noise(3, grid, 10, lam, LogNormal())
        for particle in range(10):
            path = exact_case_i(noise, params, grid, particle)
            mark_sums = np.zeros(grid.steps)
            for k in steps:
                for j in range(noise.counts(particle, k)):
                    mark_sums[k - 1] += noise.marks(particle, k, j)
            b_path = np.cumsum(math.sqrt(grid.dt) * noise.gaussians(particle, steps))
            want = (x0 - (beta + lam * eta * noise.jump_law.mean()) * path.times
                    + sigma * np.concatenate(([0.0], b_path))
                    + np.concatenate(([0.0], np.cumsum(eta * mark_sums))) + path.k_exact)
            assert np.array_equal(path.x_exact, want), particle

    def test_noise_mismatch(self):
        grid = GridSpec(1.0, 50)
        noise = make_noise(1, GridSpec(1.0, 49), 4, 5.0, LogNormal())
        with pytest.raises(NoiseMismatch):
            exact_case_i(noise, FIG1, grid)
        good = make_noise(1, grid, 4, 5.0, LogNormal())
        with pytest.raises(NoiseMismatch):
            exact_case_i(good, FIG1, grid, particle=4)


class TestCaseII:
    def test_no_reflection_before_onset(self):
        grid = GridSpec(1.0, 500)
        noise = make_noise(3, grid, 4, FIG3["lambda"], DiracPoint(1.0))
        path = exact_case_ii(noise, FIG3, grid)
        t_star = math.log(4.0) / 3.0
        before = path.times < t_star
        assert np.all(path.k_exact[before] == 0.0)
        # X equals the unreflected process there: the correction integral is 0
        y = path.x_exact[before]
        assert np.all(np.isfinite(y))

    def test_fig3_final_reflection(self):
        grid = GridSpec(1.0, 500)
        noise = make_noise(3, grid, 4, FIG3["lambda"], DiracPoint(1.0))
        path = exact_case_ii(noise, FIG3, grid)
        want = 3.0 - math.log(4.0)  # a*p*(T - t*) = 1.6137056388801096
        assert path.k_exact[-1] == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(1.6137056388801096, abs=1e-14)

    def test_deterministic_reduction_against_quadrature(self):
        params = dict(FIG3, gamma=0.0, theta=0.0)
        grid = GridSpec(0.4, 256)  # stays before the reflection onset
        noise = make_noise(4, grid, 4, 0.0, DiracPoint(1.0))
        noise = NoiseRecord(
            seed=4, n_steps=grid.steps, n_particles=4, jump_mean=0.0,
            jump_law=DiracPoint(1.0),
        )
        path = exact_case_ii(noise, params, grid)
        sol = solve_ivp(
            lambda t, y: -params["a"] * y, (0.0, 0.4), [params["x0"]],
            t_eval=path.times, rtol=1e-10, atol=1e-12,
        )
        assert np.max(np.abs(path.x_exact - sol.y[0])) < 1e-6

    def test_reconstruction_uses_left_point_sums(self):
        grid = GridSpec(1.0, 4)
        noise = make_noise(9, grid, 1, FIG3["lambda"], DiracPoint(1.0))
        path = exact_case_ii(noise, FIG3, grid)
        # independent recomputation of Y and the correction integral
        g = noise.gaussians(0, np.arange(1, 5))
        b = np.concatenate(([0.0], np.cumsum(math.sqrt(grid.dt) * g)))
        n = np.concatenate(([0], np.cumsum(noise.counts(0, np.arange(1, 5)))))
        y = 4.0 * np.exp(-(3.0 + 0.5 + 2.0) * path.times + b) * 2.0**n
        integral = 0.0
        want = [y[0]]
        for k in range(1, 5):
            integral += (path.k_exact[k] - path.k_exact[k - 1]) / y[k - 1]
            want.append(y[k] * (1.0 + integral))
        assert np.allclose(path.x_exact, want, atol=1e-12)

    @pytest.mark.parametrize("law, theta", [
        (LogNormal(0.0, 1.0), 0.5), (DiracPoint(-1.0), 1.0), (DiracPoint(1.0), -2.0),
    ], ids=["lognormal", "dirac_kills_state", "dirac_flips_sign"])
    def test_refuses_marks_it_cannot_replay(self, law, theta):
        # the closed form holds for Dirac marks v with 1 + theta*v > 0 only
        grid = GridSpec(1.0, 20)
        noise = make_noise(1, grid, 4, 2.0, law)
        with pytest.raises(NoiseMismatch, match="1 \\+ theta\\*v > 0"):
            exact_case_ii(noise, dict(FIG3, theta=theta), grid)


class TestCaseIII:
    def test_fig5_starts_at_zero(self):
        grid = GridSpec(15.0, 300)
        path = exact_case_iii_K(FIG5, grid)
        assert path.k_exact[0] == 0.0
        assert np.all(np.diff(path.k_exact) >= -1e-12)

    def test_alpha_zero_reduces_to_linear_form(self):
        params = dict(FIG5, alpha=0.0, x0=2.0)
        grid = GridSpec(15.0, 200)
        path = exact_case_iii_K(params, grid)
        t = path.times
        ey = mean_y(t, x0=2.0, beta=params["beta"], a=params["a"])
        roots = np.exp(params["a"] * t) * (params["p"] - ey)
        kbar = np.maximum.accumulate(np.maximum(0.0, roots))
        want = by_parts(t, kbar, params["a"])
        assert np.max(np.abs(path.k_exact - want)) < 1e-9

    def test_deterministic_case_against_dense_scan(self):
        # vanishing noise: the constraint mean is the explicit deterministic
        # function ey + decay*x + alpha*sin(ey + decay*x) - p, so dense-grid
        # scanning gives an independent root oracle
        params = dict(FIG5, **{"lambda": 1e-300, "sigma": 1e-300, "x0": 1.2})
        a, beta = params["a"], params["beta"]
        grid = GridSpec(10.0, 16)
        path = exact_case_iii_K(params, grid)
        scan_roots = []
        for t in grid.times():
            decay = math.exp(-a * t)
            ey = decay * params["x0"] - beta * (1.0 - decay) / a
            xs = np.linspace(-30.0, 30.0, 2_000_001)
            vals = ey + decay * xs + 0.9 * np.sin(ey + decay * xs) - params["p"]
            assert np.all(np.diff(vals) > 0.0)
            scan_roots.append(np.interp(0.0, vals, xs))
        kbar = np.maximum.accumulate(np.maximum(0.0, scan_roots))
        want = by_parts(grid.times(), kbar, a)
        assert np.max(np.abs(path.k_exact - want)) < 1e-6

    @pytest.mark.parametrize("eta, lam", [(0.1, 1.0), (1.0, 3.0)])
    @pytest.mark.parametrize("a", [1e-6, 1e-4, 1e-2, 0.2, 1.0])
    def test_matches_quadrature_reference(self, a, eta, lam):
        # the unreflected state is x0 e^{-at} - (beta + lam eta) int e^{-au} du
        # plus a Gaussian and eta int e^{-a(t-s)} dN_s; every time integral
        # of E[sin(Y_t + d)] is taken by adaptive quadrature and the root of
        # the constraint mean in the discounted push d by bisection
        params = dict(FIG5, a=a, eta=eta, **{"lambda": lam})
        beta, sigma, x0, p, alpha = (
            params[k] for k in ("beta", "sigma", "x0", "p", "alpha")
        )
        grid = GridSpec(15.0, 60)

        def integral(fn, t):
            return quad(fn, 0.0, t, epsabs=1e-14, epsrel=1e-13, limit=200)[0]

        roots = []
        for t in grid.times():
            drift = integral(lambda u: math.exp(-a * u), t)
            var = sigma**2 * integral(lambda u: math.exp(-2.0 * a * u), t)
            jump_re = integral(lambda u: math.cos(eta * math.exp(-a * u)) - 1.0, t)
            jump_im = integral(lambda u: math.sin(eta * math.exp(-a * u)), t)
            ey = x0 * math.exp(-a * t) - beta * drift
            centre = x0 * math.exp(-a * t) - (beta + lam * eta) * drift
            amp = math.exp(-0.5 * var + lam * jump_re)

            def fn(d):
                return ey + d + alpha * amp * math.sin(centre + d + lam * jump_im) - p

            d = bisect(fn, p - ey - 2.0, p - ey + 2.0, xtol=1e-300, rtol=1e-15,
                       maxiter=2000)
            roots.append(d * math.exp(a * t))
        kbar = np.maximum.accumulate(np.maximum(0.0, roots))
        want = by_parts(grid.times(), kbar, a)
        assert want[-1] > 0.1
        got = exact_case_iii_K(params, grid).k_exact
        bound = 1e-8 if a < 1e-4 else 1e-10
        assert np.max(np.abs(got - want)) / np.max(want) < bound

    @pytest.mark.parametrize("eta, lam", [(0.1, 1.0), (1.0, 3.0)])
    def test_fast_reversion_against_refinement(self, eta, lam):
        # the time integral of K is second order: against the same reference
        # on a 32-times finer grid; a Stieltjes sum against the running
        # supremum gives 1.4e-2 here
        params = dict(FIG5, a=1.0, eta=eta, **{"lambda": lam})
        coarse = exact_case_iii_K(params, GridSpec(15.0, 500)).k_exact
        fine = exact_case_iii_K(params, GridSpec(15.0, 500 * 32)).k_exact[::32]
        assert np.max(np.abs(coarse - fine)) / np.max(fine) <= 1e-5


class TestReferencePath:
    @pytest.mark.parametrize("coefficients", [
        {"beta": 1.5, "a": 0.0, "sigma": 1.0, "eta": 1.0, "x0": 1.0, "p": 0.4},
        {"beta": -0.5, "a": 2.0, "sigma": 1.0, "x0": 3.0, "p": 1.0},
        {"beta": -3.0, "a": 2.0, "sigma": 1.0, "x0": 3.0, "p": 1.0},
        {"beta": 0.5, "a": 1.0, "gamma": 0.5, "eta": 0.3, "theta": 0.2, "x0": 2.0,
         "p": 0.2},
    ], ids=["a_zero", "a_and_beta", "never_reflects", "gamma_theta"])
    def test_linear_kind_solves_the_reflected_mean(self, coefficients):
        # the mean of the affine model solves dm = -(beta + a m) dt + dK
        # whatever gamma, theta and the marks are; with K's slope on each
        # grid interval, m must stay >= p and sit at p wherever K grows
        c = dict(coefficients)
        x0, p = c.pop("x0"), c.pop("p")
        model = affine_model(2.0, x0, LogNormal(0.0, 0.5), **c)
        grid = GridSpec(2.0, 2000)
        path = reference_path(model, linear_constraint(p), grid)
        t, k = path.times, path.k_exact
        slope = np.diff(k) / grid.dt

        def mean(push):
            def rhs(s, m):
                k_dot = slope[min(int(s / grid.dt), grid.steps - 1)] if push else 0.0
                return -(c["beta"] + c["a"] * m) + k_dot
            return solve_ivp(rhs, (0.0, grid.horizon), [x0], t_eval=t, rtol=1e-10,
                             atol=1e-12, max_step=grid.dt).y[0]

        assert np.max(np.abs(path.mean_y - mean(push=False))) < 1e-8
        m = mean(push=True)
        assert np.all(np.diff(k) >= 0.0)
        assert np.min(m - p) > -1e-5
        grows = np.concatenate(([False], np.diff(k) > 0.0))
        assert np.max(np.abs(m[grows] - p), initial=0.0) < 1e-5
        if c["beta"] + c["a"] * p <= 0.0:
            assert np.all(k == 0.0)
        else:
            assert k[-1] > 0.1

    def test_sine_kind_without_jumps_is_finite(self):
        model = affine_model(1.0, FIG5_X0, DiracPoint(), beta=0.01, a=0.5, sigma=1.0)
        with np.errstate(all="raise"):
            path = reference_path(model, sine_constraint(0.9, FIG5_P), GridSpec(15.0, 60))
        tiny = dict(FIG5, a=0.5, eta=1e-9)
        assert np.all(np.isfinite(path.k_exact)) and path.k_exact[-1] > 0.1
        want = exact_case_iii_K(tiny, GridSpec(15.0, 60)).k_exact
        assert np.max(np.abs(path.k_exact - want)) < 1e-8

    def test_sine_kind_scales_the_jump_by_the_mark(self):
        params = {"beta": 0.01, "a": 0.5, "sigma": 1.0, "eta": 0.2}
        model = affine_model(1.0, FIG5_X0, DiracPoint(-1.5), **params)
        grid = GridSpec(15.0, 60)
        path = reference_path(model, sine_constraint(0.9, FIG5_P), grid)
        want = exact_case_iii_K(dict(FIG5, **params) | {"eta": 0.2 * -1.5}, grid)
        assert np.array_equal(path.k_exact, want.k_exact)

    @pytest.mark.parametrize("kind, coefficients, law, reason", [
        ("linear", {"a": -1.0}, DiracPoint(), "a linear constraint with a = -1.0,"),
        ("sine", {"a": 1.0, "gamma": 0.5}, DiracPoint(), "gamma = 0.5,"),
        ("sine", {"a": 1.0}, LogNormal(), "LogNormal marks"),
        ("sine", {"a": 0.0}, DiracPoint(), "a sine constraint with a = 0.0,"),
        ("custom", {"a": 1.0}, DiracPoint(), "a custom constraint"),
    ])
    def test_refusals_name_the_reason(self, kind, coefficients, law, reason):
        model = affine_model(1.0, 2.0, law, sigma=1.0, **coefficients)
        constraint = {"linear": linear_constraint(1.0), "sine": sine_constraint(0.5, 1.0),
                      "custom": Constraint(h=lambda x: x - 1.0, m=1.0, M=1.0)}[kind]
        with pytest.raises(ValidationError, match="no reference path for") as excinfo:
            reference_path(model, constraint, GridSpec(1.0, 4))
        assert reason in str(excinfo.value)


    @pytest.mark.parametrize("params", [{"x0": 1.0}, {}], ids=["x0", "empty"])
    def test_spec_without_affine_coefficients_is_refused(self, params):
        # dX = -5X dt from x0 = 1 under mean X >= 0.5: the true K grows at rate
        # 2.5 from t = ln 2 / 5, so absent coefficients must not read as 0
        spec = ModelSpec(drift=lambda x: -5.0 * x, diffusion=lambda x: 0.0,
                         jump_amplitude=lambda x, z: 0.0, intensity=1.0,
                         jump_size_law=DiracPoint(), initial_law=DiracPoint(1.0),
                         compensator=lambda x: 0.0, params=params)
        with pytest.raises(ValidationError, match="name every affine coefficient"):
            reference_path(spec, linear_constraint(0.5), GridSpec(1.0, 4))
        assert coupled_path(spec, linear_constraint(0.5)) is None


class TestCoupledPath:
    def test_builtin_cases(self):
        assert coupled_path(*make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)) \
            is exact_case_i
        assert coupled_path(*make_case_ii(a=3, gamma=1, theta=1, lam=2, x0=4, p=1)) \
            is exact_case_ii
        assert coupled_path(*make_case_iii(beta=0.01, a=0.01, sigma=1.0, eta=0.1, lam=1.0,
                                           x0=FIG5_X0, p=FIG5_P, alpha=0.9)) is None

    @pytest.mark.parametrize("coefficients, x0, law, want", [
        ({"beta": -1.0, "sigma": 0.5, "eta": 2.0}, 1.0, DiracPoint(-3.0), exact_case_i),
        ({"sigma": 0.5}, -1.0, LogNormal(0.0, 0.5), exact_case_i),
        ({}, 1.0, DiracPoint(), exact_case_i),
        ({"a": 0.0, "gamma": 0.5, "theta": -0.4}, 1.0, DiracPoint(2.0), exact_case_ii),
        ({"a": 1.0, "theta": -0.4}, 1.0, DiracPoint(2.5), None),
        ({"a": 1.0, "gamma": 0.5}, 0.0, DiracPoint(), None),
        ({"a": -1.0, "gamma": 0.5}, 1.0, DiracPoint(), None),
        ({"a": 1.0, "gamma": 0.5}, 1.0, LogNormal(), None),
        ({"a": 1.0, "gamma": 0.5, "beta": 0.1}, 1.0, DiracPoint(), None),
        ({"sigma": 1.0, "theta": 0.1}, 1.0, DiracPoint(), None),
    ], ids=["additive", "additive_lognormal", "still", "multiplicative",
            "jump_to_zero", "start_at_zero", "negative_a", "multiplicative_lognormal",
            "mixed_drift", "mixed_noise"])
    def test_choice_follows_the_coefficients(self, coefficients, x0, law, want):
        model = affine_model(1.0, x0, law, **coefficients)
        assert coupled_path(model, linear_constraint(min(x0, 0.0))) is want
        assert coupled_path(model, sine_constraint(0.5, min(x0, 0.0))) is None

    def test_workers_are_looked_up_when_chosen(self, monkeypatch):
        # wrappers installed on the module see every call
        def wrapper(*args, **kwargs):
            return exact_case_i(*args, **kwargs)

        monkeypatch.setattr(oracle, "exact_case_i", wrapper)
        assert coupled_path(*make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)) \
            is wrapper

    def test_dirac_mark_value_scales_theta(self):
        grid = GridSpec(1.0, 50)
        paths = [exact_case_ii(make_noise(3, grid, 2, FIG3["lambda"], DiracPoint(value)),
                               dict(FIG3, theta=theta), grid, particle=1)
                 for theta, value in ((1.0, 1.0), (0.5, 2.0))]
        assert np.array_equal(paths[0].x_exact, paths[1].x_exact)
        # theta*v = -0.5 halves the state at each jump
        noise = make_noise(3, grid, 2, FIG3["lambda"], DiracPoint(-2.0))
        jumps = noise.counts(0, np.arange(1, 51)).sum()
        free = exact_case_ii(noise, dict(FIG3, theta=0.25, gamma=0.0, p=0.0), grid)
        want = 4.0 * math.exp(-(3.0 - 0.5 * 2.0) * 1.0) * 0.5**jumps
        assert free.x_exact[-1] == pytest.approx(want, rel=1e-12)


class TestMeanY:
    def test_at_time_zero(self):
        assert mean_y(0.0, x0=3.2, beta=1.0, a=0.5) == 3.2

    def test_zero_drift(self):
        t = np.linspace(0.0, 2.0, 9)
        assert np.allclose(mean_y(t, x0=2.0, beta=0.0, a=0.7), 2.0 * np.exp(-0.7 * t))

    @pytest.mark.parametrize("a", [1e-6, 1e-9, 1e-13])
    def test_small_speed_keeps_its_digits(self, a):
        want = -math.exp(-a) * math.expm1(a) / a
        assert mean_y(1.0, x0=0.0, beta=1.0, a=a) == pytest.approx(want, rel=1e-15)

    def test_requires_mean_reversion(self):
        with pytest.raises(ValueError):
            mean_y(1.0, x0=1.0, beta=1.0, a=0.0)

    def test_fig5_against_unreflected_euler(self):
        model, _ = make_case_iii(**{
            "beta": FIG5["beta"], "a": FIG5["a"], "sigma": FIG5["sigma"],
            "eta": FIG5["eta"], "lam": FIG5["lambda"], "x0": FIG5["x0"],
            "p": FIG5["p"], "alpha": FIG5["alpha"],
        })
        free = linear_constraint(-1e15)  # never binds: unreflected dynamics
        grid = GridSpec(15.0, 300)
        traj = simulate(model, free, grid, 20_000, seed=13)
        want = mean_y(15.0, x0=FIG5["x0"], beta=FIG5["beta"], a=FIG5["a"])
        se = math.sqrt(traj.var_x[-1] / 20_000)
        assert abs(traj.mean_x[-1] - want) < 4.0 * se


class TestExactKPath:
    def test_case_i(self):
        grid = GridSpec(1.0, 4)
        want = np.maximum(0.0, 0.5 + 2.0 * grid.times() - 1.0)
        assert np.array_equal(exact_k_path("i", FIG1, grid), want)

    def test_case_ii(self):
        grid = GridSpec(1.0, 500)
        path = exact_k_path("ii", FIG3, grid)
        assert path[-1] == pytest.approx(3.0 - math.log(4.0), abs=1e-12)

    def test_case_iii_matches_oracle(self):
        grid = GridSpec(15.0, 50)
        assert np.array_equal(
            exact_k_path("iii", FIG5, grid), exact_case_iii_K(FIG5, grid).k_exact
        )

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            exact_k_path("custom", FIG1, GridSpec(1.0, 2))


class TestDensity:
    def test_case_i_active_boundary(self):
        model, constraint = make_case_i(**{
            "beta": 2.0, "sigma": 1.0, "eta": 1.0, "lam": 5.0, "x0": 1.0, "p": 0.5,
        })
        # cloud whose constraint mean sits exactly on the boundary
        atoms = 0.5 + np.linspace(-1.0, 1.0, 5001)
        assert density_k(atoms, model, constraint) == pytest.approx(2.0, abs=1e-12)

    def test_inactive_region_gives_zero(self):
        model, constraint = make_case_i(**{
            "beta": 2.0, "sigma": 1.0, "eta": 1.0, "lam": 5.0, "x0": 1.0, "p": 0.5,
        })
        atoms = 5.0 + np.linspace(-1.0, 1.0, 513)
        assert density_k(atoms, model, constraint) == 0.0

    def test_case_ii_active_boundary(self):
        model, constraint = make_case_ii(a=3, gamma=1, theta=1, lam=2, x0=4, p=1)
        atoms = 1.0 + np.linspace(-0.5, 0.5, 4001)
        # generator of h reduces to -a*x for a linear constraint, so the
        # density at the boundary is a*p
        assert density_k(atoms, model, constraint) == pytest.approx(3.0, abs=1e-12)

    def test_sine_constraint_with_point_marks(self):
        model, constraint = make_case_iii(
            beta=1e-2, a=1e-2, sigma=1.0, eta=0.1, lam=1.0,
            x0=FIG5_X0, p=FIG5_P, alpha=0.9,
        )
        root = FIG5_X0 - 0.1
        atoms = root + np.linspace(-0.01, 0.01, 101)
        value = density_k(atoms, model, constraint, epsilon_active=1.0)
        assert np.isfinite(value)
        assert value >= 0.0

    def test_missing_derivatives(self):
        model, _ = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        bare = Constraint(h=lambda x: x - 0.5, m=1.0, M=1.0, kind="custom")
        with pytest.raises(DerivativesMissing):
            density_k([1.0, 2.0], model, bare)

    def test_lognormal_marks_match_adaptive_quadrature(self):
        # nonlinear h with continuous marks: the Gauss-Hermite bracket
        # against scipy's adaptive quadrature over the log-mark
        model, _ = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        constraint = sine_constraint(0.5, 0.5)
        atoms = np.linspace(0.0, 0.6, 64)
        h, hp = constraint.h, constraint.h_prime
        got = _jump_generator_term(atoms, hp(atoms), model, constraint)

        def reference(x):
            def integrand(g):
                z = math.exp(g)
                return (h(x + z) - h(x) - z * hp(x)) * math.exp(-0.5 * g * g)

            value = quad(integrand, -12.0, 12.0, limit=2000, epsabs=1e-13)[0]
            return 5.0 * value / math.sqrt(2.0 * math.pi)

        want = np.array([reference(x) for x in atoms])
        assert np.max(np.abs(got - want)) < 2e-2
        value = density_k(atoms, model, constraint, epsilon_active=np.inf)
        assert np.isfinite(value)

    def test_series_integrates_to_reflection(self):
        model, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
        grid = GridSpec(1.0, 50)
        times, khat = density_series(model, constraint, grid, 2000, seed=17)
        assert times.shape == khat.shape == (50,)
        integral = float(khat.sum() * grid.dt)
        assert abs(integral - 1.5) < 0.3
