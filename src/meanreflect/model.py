"""Model declaration: SDE coefficients, jump structure, constraint, initial law.

The engine simulates scalar dynamics

    dX = b(X) dt + sigma(X) dB + jump term + dK,

where the jump term is a compound Poisson sum of amplitudes F(X, mark),
compensated by ``intensity * E_mark[F(x, mark)]``, and K is the minimal
nondecreasing deterministic push keeping the mean constraint
``mean h(X_t) >= 0`` satisfied.

The three built-in cases, which have (semi-)closed-form solutions, and the
JSON "custom" family are coefficient sets of one affine model,
:func:`affine_model`; anything else can be declared directly through
:class:`ModelSpec` and :class:`Constraint` with vectorized coefficient
callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import stochastics
from .numerics import bisect_increasing, expand_bracket
from .stochastics import DiracPoint, Law, LogNormal, expect

#: Internal seed for validation sampling (report must be reproducible).
_VALIDATE_SEED = 0x56414C4944415445

#: Slope cap of validate's advisory Lipschitz spot-check.
_LIPSCHITZ_BOUND = 1e6


@dataclass(frozen=True)
class Constraint:
    """Bi-Lipschitz increasing constraint function h.

    ``m`` and ``M`` bound the increments: m|x-y| <= |h(x)-h(y)| <= M|x-y|.
    They may be ``None`` for custom constraints without certified bounds, in
    which case root brackets are grown geometrically instead of placed
    directly. ``kind`` is a key of :data:`KINDS`; any other key (the default
    "custom") takes the generic O(N) path of the reflection kernel.
    """

    h: Callable[[np.ndarray], np.ndarray]
    m: float | None
    M: float | None
    h_prime: Callable[[np.ndarray], np.ndarray] | None = None
    h_second: Callable[[np.ndarray], np.ndarray] | None = None
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    @property
    def kind_record(self) -> "ConstraintKind":
        """The :data:`KINDS` record of ``kind``, or :data:`GENERIC_KIND`."""
        return KINDS.get(self.kind, GENERIC_KIND)


def linear_constraint(p: float) -> Constraint:
    """h(x) = x - p; the constraint ``mean X >= p``."""
    return Constraint(
        h=lambda x: x - p,
        m=1.0,
        M=1.0,
        h_prime=lambda x: np.ones_like(np.asarray(x, dtype=np.float64)),
        h_second=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        kind="linear",
        params={"p": p},
    )


def sine_constraint(alpha: float, p: float) -> Constraint:
    """h(x) = x + alpha*sin(x) - p, increasing and bi-Lipschitz with
    m = 1 - |alpha| and M = 1 + |alpha|; raises ValueError unless |alpha| < 1."""
    if not abs(alpha) < 1.0:
        raise ValueError(f"sine constraint needs |alpha| < 1, got alpha={alpha}")
    return Constraint(
        h=lambda x: x + alpha * np.sin(x) - p,
        m=1.0 - abs(alpha),
        M=1.0 + abs(alpha),
        h_prime=lambda x: 1.0 + alpha * np.cos(x),
        h_second=lambda x: -alpha * np.sin(x),
        kind="sine",
        params={"alpha": alpha, "p": p},
    )


def sine_constraint_root(alpha: float, p: float) -> float:
    """The unique solution of x + alpha*sin(x) = p (needs |alpha| < 1)."""
    if abs(alpha) >= 1.0:
        raise ValueError(f"|alpha| must be < 1, got {alpha}")
    f = lambda x: x + alpha * math.sin(x) - p
    lo, hi = expand_bracket(f, -max(1.0, 2.0 * abs(p)), max(1.0, 2.0 * abs(p)))
    return bisect_increasing(f, lo, hi, tol_x=1e-14)


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients, jump structure and initial law of one model.

    Coefficient callables must accept numpy arrays (or broadcast against
    them). ``compensator`` is x -> intensity * E_mark[F(x, mark)]; when it
    is None, :meth:`compensate` takes that expectation by the mark law's
    quadrature rule (:func:`~meanreflect.stochastics.expect`): 1, 64 or 1024
    evaluations of F per call for a point, lognormal or quantile-function
    law.
    """

    drift: Callable
    diffusion: Callable
    jump_amplitude: Callable
    intensity: float
    jump_size_law: Law
    initial_law: Law
    compensator: Callable | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.intensity <= 0.0:
            raise ValueError(f"intensity must be > 0, got {self.intensity}")

    def compensate(self, x):
        """The jump compensator at x, from the spec's current fields."""
        if self.compensator is not None:
            return self.compensator(x)
        amp = self.jump_amplitude
        return self.intensity * expect(self.jump_size_law, lambda z: amp(x, z))


def _affine(c0: float, c1: float) -> Callable:
    """x -> c0 + c1*x without its zero terms, so that a constant coefficient
    stays a Python scalar that broadcasts against the particle array."""
    if c1 == 0.0:
        return lambda x: c0
    if c0 == 0.0:
        return lambda x: c1 * x
    return lambda x: c0 + c1 * x


#: The coefficient keywords of :func:`affine_model`, each 0 when absent.
AFFINE_COEFFICIENTS = ("beta", "a", "sigma", "gamma", "eta", "theta")


def affine_model(
    lam: float, x0: float, law: Law, *, beta: float = 0.0, a: float = 0.0,
    sigma: float = 0.0, gamma: float = 0.0, eta: float = 0.0, theta: float = 0.0,
    params: dict | None = None,
) -> ModelSpec:
    """The affine jump SDE, started at the point x0:

        dX = -(beta + a X) dt + (sigma + gamma X) dB + Z (eta + theta X) dN~,

    with marks Z from ``law``, jumps at rate ``lam`` and the exact
    compensator ``(lam*eta*E[Z]) + (lam*theta*E[Z])*x``. ``params``, with
    every coefficient, lambda and x0 added, stays on the spec."""
    mark_mean = law.mean()
    jump = _affine(eta, theta)
    return ModelSpec(
        drift=_affine(-beta, -a),
        diffusion=_affine(sigma, gamma),
        jump_amplitude=lambda x, z: z * jump(x),
        intensity=lam,
        jump_size_law=law,
        initial_law=DiracPoint(x0),
        compensator=_affine(lam * eta * mark_mean, lam * theta * mark_mean),
        params={**(params or {}), "beta": beta, "a": a, "sigma": sigma, "gamma": gamma,
                "eta": eta, "theta": theta, "lambda": lam, "x0": x0},
    )


def check_initial_mean(constraint: Constraint, x0: float) -> None:
    """Raise ValueError unless E[h(X0)] = h(x0) >= 0 for a start at x0."""
    h0 = float(constraint.h(x0))
    if h0 < 0.0:
        raise ValueError(f"h(x0) = {h0:.6g} < 0: initial mean constraint violated")


def make_case_i(
    beta: float, sigma: float, eta: float, lam: float, x0: float, p: float
) -> tuple[ModelSpec, Constraint]:
    """Drifted Brownian motion with compensated lognormal jumps, linear constraint.

    The affine model with beta, sigma and eta, lognormal(0,1) marks (mean
    sqrt(e)), and h(x) = x - p.
    """
    if beta <= 0 or sigma <= 0 or eta <= 0 or lam <= 0:
        raise ValueError("case (i) requires beta, sigma, eta, lambda > 0")
    if x0 < p:
        raise ValueError(
            f"x0={x0} < p={p}: initial mean constraint h(x0) >= 0 violated"
        )
    spec = affine_model(lam, x0, LogNormal(0.0, 1.0), beta=beta, sigma=sigma, eta=eta,
                        params={"p": p})
    return spec, linear_constraint(p)


def make_case_ii(
    a: float, gamma: float, theta: float, lam: float, x0: float, p: float
) -> tuple[ModelSpec, Constraint]:
    """Geometric dynamics with multiplicative jumps, linear constraint.

    The affine model with a, gamma and theta, unit Dirac marks, and
    h(x) = x - p.
    """
    if a <= 0 or gamma <= 0 or theta <= 0 or lam <= 0:
        raise ValueError("case (ii) requires a, gamma, theta, lambda > 0")
    if p <= 0:
        raise ValueError(
            f"p={p} <= 0: the reflection onset time (ln x0 - ln p)/a is undefined"
        )
    if x0 < p:
        raise ValueError(
            f"x0={x0} < p={p}: initial mean constraint h(x0) >= 0 violated"
        )
    spec = affine_model(lam, x0, DiracPoint(), a=a, gamma=gamma, theta=theta, params={"p": p})
    return spec, linear_constraint(p)


def make_case_iii(
    beta: float,
    a: float,
    sigma: float,
    eta: float,
    lam: float,
    x0: float,
    p: float,
    alpha: float,
) -> tuple[ModelSpec, Constraint]:
    """Mean-reverting dynamics with unit-mark jumps, sine-perturbed constraint.

    The affine model with beta, a, sigma and eta, unit Dirac marks, and
    h(x) = x + alpha*sin(x) - p.
    """
    if beta <= 0 or a <= 0 or sigma <= 0 or eta <= 0 or lam <= 0:
        raise ValueError("case (iii) requires beta, a, sigma, eta, lambda > 0")
    constraint = sine_constraint(alpha, p)
    check_initial_mean(constraint, x0)
    spec = affine_model(lam, x0, DiracPoint(), beta=beta, a=a, sigma=sigma, eta=eta,
                        params={"p": p, "alpha": alpha})
    return spec, constraint


@dataclass(frozen=True)
class ConstraintKind:
    """One constraint kind: its config parameters (in ``factory`` order), its
    factory, and the reflection kernel's view of it. ``reduce(atoms)`` keeps
    statistics besides the atom mean, ``mean(c, x, atom_mean, stats)`` is the
    mean of h at shift x and ``root(c, atom_mean, stats)`` its exact root
    (None: bisect). An ``affine`` h has no jump part in its generator. The
    defaults are the generic kind: it keeps the atoms, O(N) per mean."""

    params: tuple[str, ...] = ()
    factory: Callable[..., Constraint] | None = None
    reduce: Callable[[np.ndarray], object] = lambda atoms: atoms
    mean: Callable[..., float] = lambda c, x, _, atoms: float(np.mean(c.h(x + atoms)))
    root: Callable[..., float] | None = None
    affine: bool = False


#: The constraint kinds a config can name; adding one means adding a record.
KINDS: dict[str, ConstraintKind] = {
    "linear": ConstraintKind(
        ("p",), linear_constraint, reduce=lambda atoms: None,
        mean=lambda c, x, atom_mean, _: x + atom_mean - c.params["p"],
        root=lambda c, atom_mean, _: c.params["p"] - atom_mean, affine=True,
    ),
    "sine": ConstraintKind(
        ("alpha", "p"), sine_constraint,
        reduce=lambda a: (float(np.mean(np.cos(a))), float(np.mean(np.sin(a)))),
        mean=lambda c, x, atom_mean, s: (
            x + atom_mean - c.params["p"]
            + c.params["alpha"] * (math.sin(x) * s[0] + math.cos(x) * s[1])
        ),
    ),
}
GENERIC_KIND = ConstraintKind()


@dataclass(frozen=True)
class Case:
    """A built-in case: its config parameters, in ``factory`` order, and factory."""

    params: tuple[str, ...]
    factory: Callable[..., tuple[ModelSpec, Constraint]]


#: The built-in cases a config can name; adding one means adding a record.
CASES: dict[str, Case] = {
    "i": Case(("beta", "sigma", "eta", "lambda", "x0", "p"), make_case_i),
    "ii": Case(("a", "gamma", "theta", "lambda", "x0", "p"), make_case_ii),
    "iii": Case(("beta", "a", "sigma", "eta", "lambda", "x0", "p", "alpha"), make_case_iii),
}


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: hard violations and advisory warnings."""

    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [f"violations: {len(self.violations)}, warnings: {len(self.warnings)}"]
        lines += [f"  VIOLATION: {v}" for v in self.violations]
        lines += [f"  warning:   {w}" for w in self.warnings]
        return "\n".join(lines)


def _uniform_grid(seed: int, n: int, lo: float, hi: float) -> np.ndarray:
    u = stochastics.uniforms(
        seed, np.arange(n), 0, stochastics.Channel.INITIAL
    )
    return lo + (hi - lo) * u


def validate(spec: ModelSpec, constraint: Constraint) -> ValidationReport:
    """Report-only check of the model and constraint invariants.

    Hard violations: broken (m, M) ordering, non-monotone or
    non-bi-Lipschitz h on sampled pairs, negative initial constraint mean
    E[h(X0)] (by the initial law's quadrature rule, exact for a point
    mass); ``ModelSpec`` itself rejects a non-positive intensity. Advisory
    warnings: finite-difference slopes of the drift, the diffusion and the
    jump amplitude at the mean mark above 1e6 on 201 evenly spaced points
    of [-50, 50] (global Lipschitz continuity cannot be certified
    numerically, so this never rejects).
    """
    report = ValidationReport()

    if (constraint.m is None) != (constraint.M is None):
        report.violations.append("m and M must be supplied together")
    has_bounds = constraint.m is not None and constraint.M is not None
    if has_bounds:
        if not (0.0 < constraint.m <= constraint.M):
            report.violations.append(
                f"need 0 < m <= M, got m={constraint.m}, M={constraint.M}"
            )
            has_bounds = False
    else:
        report.warnings.append(
            "no (m, M) bounds: root brackets will be grown geometrically"
        )

    # Monotonicity and bi-Lipschitz bounds on random pairs in [-50, 50].
    xs = _uniform_grid(_VALIDATE_SEED, 10_000, -50.0, 50.0)
    ys = _uniform_grid(_VALIDATE_SEED + 1, 10_000, -50.0, 50.0)
    lo = np.minimum(xs, ys)
    hi = np.maximum(xs, ys)
    gap = hi - lo
    dh = np.asarray(constraint.h(hi), dtype=np.float64) - np.asarray(
        constraint.h(lo), dtype=np.float64
    )
    if np.any(dh < -1e-12):
        report.violations.append("h is not nondecreasing on sampled pairs")
    if has_bounds:
        slack = 1e-9 * (1.0 + gap)
        if np.any(dh < constraint.m * gap - slack):
            report.violations.append(
                f"h increments fall below m={constraint.m} on sampled pairs"
            )
        if np.any(dh > constraint.M * gap + slack):
            report.violations.append(
                f"h increments exceed M={constraint.M} on sampled pairs"
            )

    # Initial mean constraint E[h(X0)] >= 0.
    h0 = float(expect(spec.initial_law, constraint.h))
    if h0 < 0.0:
        report.violations.append(f"mean h(X0) = {h0:.6g} < 0")

    # Advisory finite-difference Lipschitz spot-check.
    grid = np.linspace(-50.0, 50.0, 201)
    z = spec.jump_size_law.mean()
    for name, fn in (
        ("drift", spec.drift),
        ("diffusion", spec.diffusion),
        (f"jump_amplitude at mark {z:.3g}", lambda x: spec.jump_amplitude(x, z)),
    ):
        vals = np.broadcast_to(np.asarray(fn(grid), dtype=np.float64), grid.shape)
        slope = np.abs(np.diff(vals) / np.diff(grid)).max()
        if slope > _LIPSCHITZ_BOUND:
            report.warnings.append(
                f"{name} finite-difference slope {slope:.3g} exceeds "
                f"{_LIPSCHITZ_BOUND:.3g}"
            )

    return report
