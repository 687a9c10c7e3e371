"""Mean-constraint kernel on empirical measures.

An empirical measure is a 1-D array of N equally weighted atoms. The core
objects are

* ``h_mean(x, atoms, h)``   - mean of h(x + atom) over the atoms,
* ``bar_g0(atoms, h)``      - the root in x of that mean (unique because h
  is increasing and bi-Lipschitz),
* ``g0 = max(0, bar_g0)``   - the minimal nonnegative push restoring the
  constraint, and
* :class:`ReflectionTracker` - the running supremum of g0 values whose
  increments are the per-step reflection amounts.

Root finding is bisection to an absolute tolerance of 1e-12 on x, so the
reflection error is negligible next to the Monte Carlo error of the
surrounding scheme. Linear constraints get a closed form and sine-perturbed
constraints get an O(1)-per-iteration evaluator built from three reductions
over the atoms; both shortcuts agree with plain bisection to 1e-10 and are
tested against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteBracket, SizeMismatch
from .model import Constraint
from .numerics import DEFAULT_TOL_X, bisect_increasing, expand_bracket


def as_atoms(measure) -> np.ndarray:
    """Validate and return an empirical measure as a float64 atom array."""
    atoms = np.asarray(measure, dtype=np.float64)
    if atoms.ndim != 1 or atoms.size < 1:
        raise ValueError("an empirical measure needs a 1-D array of >= 1 atoms")
    if not np.all(np.isfinite(atoms)):
        raise ValueError("empirical measure atoms must be finite")
    return atoms


class MeanEvaluator:
    """x -> mean h(x + atoms) with per-kind reduced statistics.

    Building one costs O(N); evaluations are O(1) for linear and sine
    constraints and O(N) otherwise. The stepping loop reuses a single
    evaluator per step for both the root solve and the constraint-mean
    diagnostics, so summation order is fixed and results are independent of
    worker count.
    """

    def __init__(self, atoms: np.ndarray, constraint: Constraint):
        self._constraint = constraint
        self._kind = constraint.kind
        self.atom_mean = float(np.mean(atoms))
        if self._kind == "linear":
            self._p = constraint.params["p"]
        elif self._kind == "sine":
            self._alpha = constraint.params["alpha"]
            self._p = constraint.params["p"]
            self._cos_mean = float(np.mean(np.cos(atoms)))
            self._sin_mean = float(np.mean(np.sin(atoms)))
        else:
            self._atoms = atoms

    def __call__(self, x: float) -> float:
        if self._kind == "linear":
            return x + self.atom_mean - self._p
        if self._kind == "sine":
            return (
                x
                + self.atom_mean
                - self._p
                + self._alpha
                * (
                    math.sin(x) * self._cos_mean
                    + math.cos(x) * self._sin_mean
                )
            )
        return float(np.mean(self._constraint.h(x + self._atoms)))

    def root(self) -> float:
        """The x with mean h(x + atoms) = 0."""
        if self._kind == "linear":
            return self._p - self.atom_mean
        at_zero = self(0.0)
        if not math.isfinite(at_zero):
            raise NonFiniteBracket(
                f"constraint mean at 0 is {at_zero}; atoms or h are ill-posed"
            )
        if at_zero == 0.0:
            return 0.0
        constraint = self._constraint
        if constraint.m is not None and constraint.M is not None and constraint.m > 0:
            lo = -at_zero / constraint.m
            hi = -at_zero / constraint.M
            if lo > hi:
                lo, hi = hi, lo
            # Cushion against rounding pushing the root past an endpoint.
            pad = 1e-9 * (1.0 + abs(lo) + abs(hi)) + DEFAULT_TOL_X
            lo -= pad
            hi += pad
        else:
            lo, hi = expand_bracket(self, -1.0, 1.0)
        return bisect_increasing(self, lo, hi)

    def g0(self) -> float:
        """Minimal nonnegative push: 0 when the constraint mean at 0 is
        already nonnegative, else max(0, root)."""
        if self(0.0) >= 0.0:
            return 0.0
        return max(0.0, self.root())


def h_mean(x: float, measure, constraint: Constraint) -> float:
    """Mean of h(x + atom) over the measure's atoms."""
    atoms = as_atoms(measure)
    return float(np.mean(constraint.h(x + atoms)))


def bar_g0(measure, constraint: Constraint) -> float:
    """Root in x of the constraint mean; the signed minimal shift."""
    return MeanEvaluator(as_atoms(measure), constraint).root()


def g0(measure, constraint: Constraint) -> float:
    """Minimal nonnegative push: max(0, bar_g0). Zero whenever the
    constraint mean at 0 is already nonnegative."""
    return MeanEvaluator(as_atoms(measure), constraint).g0()


@dataclass
class ReflectionTracker:
    """Running supremum of per-step g0 values.

    ``advance`` returns the sup increment, which is exactly the reflection
    amount applied at the step: the running sup after k observations equals
    the largest g0 seen so far, and increments are zero on ties.
    """

    running_sup: float = 0.0

    def advance(self, g0_value: float) -> float:
        if g0_value < 0.0:
            raise ValueError(f"g0 values are nonnegative, got {g0_value}")
        if g0_value > self.running_sup:
            delta = g0_value - self.running_sup
            self.running_sup = g0_value
        else:
            delta = 0.0
        return delta


def wasserstein1(measure_a, measure_b) -> float:
    """Exact order-1 transport distance between equal-size atom sets.

    For equally weighted empirical measures with the same atom count this
    is the mean absolute difference of the sorted atom sequences.
    """
    a = as_atoms(measure_a)
    b = as_atoms(measure_b)
    if a.size != b.size:
        raise SizeMismatch(f"atom counts differ: {a.size} vs {b.size}")
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))
