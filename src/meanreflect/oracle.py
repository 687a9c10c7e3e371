"""Reference solutions: exact reflection paths and noise-coupled exact paths.

Both are chosen from the model's affine coefficients, mark law and
constraint kind. ``K`` has one exact reference per kind (:func:`reference_path`):
linear, for any coefficients with a >= 0 (cases i and ii), and sine, for
gamma = theta = 0, a > 0 and Dirac marks (case iii).

A linear constraint with additive or multiplicative noise (cases i and ii)
also has an exact path (:func:`coupled_path`) that replays the exact same
counter-based noise as a scheme run, so the difference between the two
isolates the discretization and particle-approximation error. The
multiplicative state is reconstructed from the unreflected exponential
process by a left-point Riemann sum of 1/Y against the reflection increments.

The reflection-density estimator turns a particle snapshot into the local
growth rate of the reflection via the generator of the constraint
function, giving a diagnostic that is independent of the running-sup
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
from scipy.special import sici

from .errors import DerivativesMissing, NoiseMismatch, ValidationError
from .model import (
    AFFINE_COEFFICIENTS,
    CASES,
    Constraint,
    ModelSpec,
    make_case,
    sine_constraint_root,
)
from .scheme import GridSpec, simulate
from .stochastics import DiracPoint, NoiseRecord, expect


@dataclass
class OraclePath:
    """Reference solution on a grid; ``x_exact`` is the coupled per-particle
    path, if there is one (:func:`coupled_path`)."""

    times: np.ndarray
    k_exact: np.ndarray
    x_exact: np.ndarray | None = None
    mean_y: np.ndarray | None = None


def _require(params: Mapping[str, float], *names: str) -> list[float]:
    """The named parameters as floats; an absent affine coefficient is 0."""
    missing = [n for n in names if n not in params and n not in AFFINE_COEFFICIENTS]
    if missing:
        raise KeyError(f"missing parameters {missing}")
    return [float(params.get(n, 0.0)) for n in names]


def _check_noise(noise: NoiseRecord, grid: GridSpec) -> np.ndarray:
    """Steps 1..n of ``grid``; raises NoiseMismatch unless ``noise`` has n steps."""
    if noise.n_steps != grid.steps:
        raise NoiseMismatch(
            f"noise record has {noise.n_steps} steps, grid has {grid.steps}"
        )
    return np.arange(1, grid.steps + 1)


def _brownian_path(
    noise: NoiseRecord, grid: GridSpec, particle: int, steps: np.ndarray
) -> np.ndarray:
    increments = math.sqrt(grid.dt) * noise.gaussians(particle, steps)
    return np.concatenate(([0.0], np.cumsum(increments)))


def _linear_k(params: Mapping[str, float], grid: GridSpec) -> OraclePath:
    """Exact reflection and unreflected mean under a linear constraint, a >= 0:
    compensated jumps and dB have zero mean, so dm = -(beta + a m) dt + dK,
    and K grows at the rate beta + a p once the unreflected mean reaches p."""
    beta, a, x0, p = _require(params, "beta", "a", "x0", "p")
    t = grid.times()
    if a == 0.0:
        return OraclePath(t, np.maximum(0.0, p + beta * t - x0), mean_y=x0 - beta * t)
    rate, shift = beta + a * p, beta / a
    # With rate <= 0 the mean decays to -beta/a >= p and never reaches p.
    t_star = (math.log(x0 + shift) - math.log(p + shift)) / a if rate > 0.0 else math.inf
    k_exact = max(0.0, rate) * np.maximum(0.0, t - t_star)
    return OraclePath(t, k_exact, mean_y=mean_y(t, x0, beta, a))


def exact_case_i(
    noise: NoiseRecord, params: Mapping[str, float], grid: GridSpec, particle: int = 0
) -> OraclePath:
    """Exact coupled path for additive noise (case i) on the grid; its drift is
    compensated by ``lam*eta*E[Z]``, the product the model's compensator uses."""
    beta, sigma, eta, lam, x0 = _require(params, "beta", "sigma", "eta", "lambda", "x0")
    steps = _check_noise(noise, grid)
    ref = _linear_k(params, grid)
    t = ref.times
    b_path = _brownian_path(noise, grid, particle, steps)
    mark_sums = np.bincount(*noise.jumps(particle, steps), grid.steps)
    jump_path = np.concatenate(([0.0], np.cumsum(eta * mark_sums)))
    compensated = beta + lam * eta * noise.jump_law.mean()
    x_exact = x0 - compensated * t + sigma * b_path + jump_path + ref.k_exact
    return replace(ref, x_exact=x_exact)


def exact_case_ii(
    noise: NoiseRecord, params: Mapping[str, float], grid: GridSpec, particle: int = 0
) -> OraclePath:
    """Exact coupled path for multiplicative noise (case ii) on the grid, where
    a jump multiplies the state by 1 + theta*v, v the Dirac mark.

    The unreflected exponential process is exact at grid times; the
    reconstruction integral of 1/Y against dK uses left-point sums, which
    is first-order consistent like the scheme itself. Raises NoiseMismatch
    unless the record's marks are Dirac, at a value v with 1 + theta*v > 0.
    """
    a, gamma, theta, lam, x0 = _require(params, "a", "gamma", "theta", "lambda", "x0")
    law = noise.jump_law
    if not (isinstance(law, DiracPoint) and 1.0 + theta * law.value > 0.0):
        raise NoiseMismatch(f"exact_case_ii needs Dirac marks v with 1 + theta*v > 0, got {law!r}")
    theta *= law.value
    steps = _check_noise(noise, grid)
    ref = _linear_k(params, grid)
    t = ref.times
    b_path = _brownian_path(noise, grid, particle, steps)
    n_path = np.concatenate(
        ([0], np.cumsum(noise.counts(particle, steps)))
    ).astype(np.float64)
    y = (
        x0
        * np.exp(-(a + 0.5 * gamma**2 + lam * theta) * t + gamma * b_path)
        * (1.0 + theta) ** n_path
    )
    integral = np.concatenate(([0.0], np.cumsum(np.diff(ref.k_exact) / y[:-1])))
    return replace(ref, x_exact=y * (1.0 + integral))


def exact_case_iii_K(params: Mapping[str, float], grid: GridSpec) -> OraclePath:
    """Exact reflection under a sine constraint, for additive noise, a > 0
    and jumps of the fixed size ``eta``.

    With ``d = e^{-at} x`` the discounted push, the constraint mean at time
    t is ``ey + d + alpha*amp*sin(theta + d) - p``: ``ey`` is the mean of
    the unreflected state, and ``amp*e^{i theta}`` is its characteristic
    function at 1, the OU Gaussian factor times the exact jump factor
    ``exp(lam int_0^t (e^{i eta e^{-as}} - 1) ds)``, in closed form through
    the sine and cosine integrals. As ``amp <= 1`` the root in ``theta + d``
    is a sine-constraint root. With ``D`` the running supremum of the
    positive roots in x, ``K = int e^{-as} dD_s`` is taken by parts,
    ``e^{-at} D_t + a int_0^t e^{-as} D_s ds``, by the trapezoid rule (second
    order, where a Stieltjes sum against ``dD`` would be first order in a*dt).
    """
    beta, a, sigma, eta, lam, x0, p, alpha = _require(
        params, "beta", "a", "sigma", "eta", "lambda", "x0", "p", "alpha"
    )
    t = grid.times()
    decay = np.exp(-a * t)
    si, ci = sici(eta * decay)
    si_eta, ci_eta = sici(eta)
    ey = mean_y(t, x0, beta, a)
    # Ci(0) = -inf; without jumps the jump factor is exactly 1.
    jump = lam * ((ci_eta - ci) / a - t) if eta != 0.0 else 0.0
    amp = np.exp(sigma**2 * np.expm1(-2.0 * a * t) / (4.0 * a) + jump)
    theta = mean_y(t, x0, beta + lam * eta, a) + lam * (si_eta - si) / a
    roots = np.array([
        sine_constraint_root(alpha * g, p - e + th) - th
        for g, e, th in zip(amp, ey, theta)
    ]) / decay
    pushed = decay * np.maximum.accumulate(np.maximum(0.0, roots))
    area = np.cumsum(0.5 * grid.dt * (pushed[1:] + pushed[:-1]))
    k_exact = pushed + a * np.concatenate(([0.0], area))
    return OraclePath(times=t, k_exact=k_exact, mean_y=ey)


def mean_y(t, x0: float, beta: float, a: float):
    """Mean of the unreflected state for mean-reverting dynamics (a != 0):
    exp(-a t) * x0 - beta*(1 - exp(-a t))/a."""
    if a == 0.0:
        raise ValueError("mean_y requires a != 0; use x0 - beta*t directly")
    t = np.asarray(t, dtype=np.float64)
    out = np.exp(-a * t) * x0 + beta * np.expm1(-a * t) / a
    return float(out) if out.ndim == 0 else out


def reference_path(model: ModelSpec, constraint: Constraint, grid: GridSpec) -> OraclePath:
    """The exact reflection path and unreflected mean of ``model`` under
    ``constraint``; raises ValidationError where the kind has none or
    ``model.params`` lacks an affine coefficient."""
    params = {**model.params, **constraint.params}
    if not set(AFFINE_COEFFICIENTS) <= model.params.keys():
        raise ValidationError("no reference path for a model whose params do not name "
                              f"every affine coefficient {AFFINE_COEFFICIENTS}")
    a, gamma, theta, eta = _require(params, "a", "gamma", "theta", "eta")
    law, kind = model.jump_size_law, constraint.kind
    if kind == "linear" and a >= 0.0:
        return _linear_k(params, grid)
    if kind == "sine" and gamma == theta == 0.0 and a > 0.0 and isinstance(law, DiracPoint):
        return exact_case_iii_K(dict(params, eta=eta * law.value), grid)
    raise ValidationError(
        f"no reference path for a {kind} constraint with a = {a}, gamma = {gamma}, "
        f"theta = {theta} and {type(law).__name__} marks: a linear one needs a >= 0, "
        "a sine one a > 0, gamma = theta = 0 and Dirac marks")


def coupled_path(model: ModelSpec, constraint: Constraint):
    """The worker ``f(noise, params, grid, particle=0)`` that replays a scheme
    run's noise exactly for ``model`` under a linear ``constraint`` (``params``
    theirs, merged), or None. Additive noise (a = gamma = theta = 0, any marks)
    and multiplicative noise (beta = sigma = eta = 0, a >= 0, x0 > 0, Dirac
    marks v with 1 + theta*v > 0) have one."""
    params = {**model.params, **constraint.params}
    if constraint.kind != "linear" or not set(AFFINE_COEFFICIENTS) <= model.params.keys():
        return None
    beta, a, sigma, gamma, eta, theta, x0 = _require(params, *AFFINE_COEFFICIENTS, "x0")
    law = model.jump_size_law
    # Module globals, looked up when this runs, so that wrappers on them see every call.
    if a == gamma == theta == 0.0:
        return exact_case_i
    if (beta == sigma == eta == 0.0 and a >= 0.0 and x0 > 0.0
            and isinstance(law, DiracPoint) and 1.0 + theta * law.value > 0.0):
        return exact_case_ii
    return None


def exact_k_path(case: str, params: Mapping[str, float], grid: GridSpec) -> np.ndarray:
    """Reference reflection path for a built-in case (no noise needed)."""
    if case not in CASES:
        raise ValueError(f"no reference reflection path for case {case!r}")
    values = (params[n] for n in CASES[case].params)
    return reference_path(*make_case(case, *values), grid).k_exact


def _jump_generator_term(
    atoms: np.ndarray,
    h_prime_vals: np.ndarray,
    model: ModelSpec,
    constraint: Constraint,
) -> np.ndarray:
    """intensity * E_mark[h(x+F) - h(x) - F h'(x)] per atom.

    Zero for an affine h; otherwise the mark expectation is taken by the jump
    law's quadrature rule (exact for point marks).
    """
    if constraint.kind_record.affine:
        return np.zeros_like(atoms)
    h = constraint.h
    h_at = h(atoms)

    def bracket(z):
        amp = np.broadcast_to(
            np.asarray(model.jump_amplitude(atoms, z), dtype=np.float64),
            atoms.shape,
        )
        return h(atoms + amp) - h_at - amp * h_prime_vals

    return model.intensity * expect(model.jump_size_law, bracket)


def density_k(
    snapshot,
    model: ModelSpec,
    constraint: Constraint,
    epsilon_active: float | None = None,
) -> float:
    """Reflection-density estimate from one particle snapshot.

    Applies the generator of h to the cloud and returns the negative part
    of its mean divided by the mean of h', gated by whether the constraint
    mean sits at the boundary (within ``epsilon_active``, which defaults to
    three times the standard error of the constraint mean).
    """
    if constraint.h_prime is None or constraint.h_second is None:
        raise DerivativesMissing(
            "density estimation needs h_prime and h_second on the constraint"
        )
    atoms = np.asarray(snapshot, dtype=np.float64)
    h_vals = np.asarray(constraint.h(atoms), dtype=np.float64)
    mean_h = float(h_vals.mean())
    if epsilon_active is None:
        spread = float(h_vals.std(ddof=1)) if atoms.size > 1 else 0.0
        epsilon_active = 3.0 * spread / math.sqrt(atoms.size)
    if abs(mean_h) > epsilon_active:
        return 0.0
    hp = np.broadcast_to(
        np.asarray(constraint.h_prime(atoms), dtype=np.float64), atoms.shape
    )
    hpp = np.asarray(constraint.h_second(atoms), dtype=np.float64)
    sig = np.asarray(model.diffusion(atoms), dtype=np.float64)
    generator = (
        np.asarray(model.drift(atoms), dtype=np.float64) * hp
        + 0.5 * sig * sig * hpp
        + _jump_generator_term(atoms, hp, model, constraint)
    )
    negative_part = max(0.0, -float(np.mean(generator)))
    return negative_part / float(np.mean(hp))


def density_series(
    model: ModelSpec,
    constraint: Constraint,
    grid: GridSpec,
    n_particles: int,
    seed: int,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reflection-density estimates along a scheme run.

    The estimate at grid time T_k uses the post-reflection cloud at T_k,
    the discrete stand-in for the left limit on (T_k, T_k+1); the
    left-point sum of the series times dt approximates the total
    reflection. Returns (times[:-1], estimates).
    """
    khat = np.empty(grid.steps)

    def observe(k: int, X: np.ndarray) -> None:
        if k < grid.steps:
            khat[k] = density_k(X, model, constraint)

    simulate(model, constraint, grid, n_particles, seed, observe=observe, threads=threads)
    return grid.times()[:-1], khat
