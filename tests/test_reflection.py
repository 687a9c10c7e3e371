"""Reflection kernel: constraint means, root finding, running supremum, W1."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanreflect import stochastics as sto
from meanreflect.errors import NoConvergence, NonFiniteBracket, SizeMismatch
from meanreflect.model import KINDS, Constraint, linear_constraint, sine_constraint
from meanreflect.reflection import (
    MeanEvaluator,
    ReflectionTracker,
    bar_g0,
    g0,
    h_mean,
    wasserstein1,
)

TOL_X = 1e-12

#: A value for each constraint-kind parameter, to build every kind.
KIND_ARGS = {"p": 0.8, "alpha": 0.6}


def random_atoms(seed: int, n: int, scale: float = 10.0) -> np.ndarray:
    u = sto.uniforms(seed, np.arange(n), 0, sto.Channel.INITIAL)
    return scale * (2.0 * u - 1.0)


def grid_scan_root(f, lo: float, hi: float, rounds: int = 4) -> float:
    """Independent dense-grid root locator for an increasing function."""
    for _ in range(rounds):
        xs = np.linspace(lo, hi, 20_001)
        vals = np.array([f(x) for x in xs])
        idx = int(np.searchsorted(vals, 0.0))
        idx = min(max(idx, 1), xs.size - 1)
        lo, hi = xs[idx - 1], xs[idx]
    return 0.5 * (lo + hi)


class TestHMean:
    def test_linear_example(self):
        assert h_mean(0.0, [0.0, 2.0], linear_constraint(2.0)) == -1.0

    def test_linearity(self):
        constraint = linear_constraint(1.3)
        atoms = random_atoms(1, 257)
        for x in (-2.0, 0.0, 3.5):
            assert h_mean(x, atoms, constraint) == pytest.approx(
                x + atoms.mean() - 1.3, abs=1e-12
            )

    def test_sine_single_atom(self):
        constraint = sine_constraint(0.5, 0.0)
        assert h_mean(math.pi, [0.0], constraint) == pytest.approx(
            math.pi, abs=1e-12
        )

    def test_slope_between_bounds(self):
        constraint = sine_constraint(0.7, 0.3)
        atoms = random_atoms(2, 400)
        xs = np.linspace(-4.0, 4.0, 41)
        vals = [h_mean(x, atoms, constraint) for x in xs]
        slopes = np.diff(vals) / np.diff(xs)
        assert np.all(slopes >= constraint.m - 1e-9)
        assert np.all(slopes <= constraint.M + 1e-9)


class TestBarG0:
    def test_linear_closed_form(self):
        constraint = linear_constraint(2.0)
        assert bar_g0([0.0, 2.0], constraint) == 1.0
        atoms = random_atoms(3, 100)
        assert bar_g0(atoms, constraint) == 2.0 - atoms.mean()

    def test_sine_root_against_grid_scan(self):
        constraint = sine_constraint(0.9, math.pi / 2)
        x0 = grid_scan_root(
            lambda x: x + 0.9 * math.sin(x) - math.pi / 2, -5.0, 5.0
        )
        # single atom at the constraint root: the shift needed is zero
        assert abs(bar_g0([x0], constraint)) < 1e-9
        # a shifted atom cloud needs a nontrivial root; cross-check by scan
        atoms = random_atoms(4, 300, scale=2.0) - 1.0
        evaluator = MeanEvaluator(atoms, constraint)
        want = grid_scan_root(evaluator, -20.0, 20.0)
        assert bar_g0(atoms, constraint) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize(
        "kind", [k for k, record in KINDS.items() if record.factory is not None]
    )
    def test_bisection_matches_closed_form(self, kind):
        """Each kind's mean and root agree with the generic O(N) path."""
        record = KINDS[kind]
        constraint = record.factory(*(KIND_ARGS[name] for name in record.params))
        generic = dataclasses.replace(constraint, kind="custom")
        for seed in range(50):
            atoms = random_atoms(seed + 10, 64)
            evaluator = MeanEvaluator(atoms, constraint)
            for x in (-3.0, -0.4, 0.0, 1.7, 5.0):
                assert abs(evaluator(x) - h_mean(x, atoms, constraint)) <= 1e-12
            fast = bar_g0(atoms, constraint)
            slow = bar_g0(atoms, generic)
            assert abs(fast - slow) <= 1e-10

    def test_custom_without_bounds_grows_bracket(self):
        constraint = Constraint(
            h=lambda x: np.asarray(x) ** 3 + np.asarray(x) - 0.4,
            m=None,
            M=None,
            kind="custom",
        )
        atoms = np.array([100.0, -100.0, 0.0])
        root = bar_g0(atoms, constraint)
        assert abs(h_mean(root, atoms, constraint)) < 1e-6

    def test_inconsistent_bounds_raise(self):
        lying = Constraint(h=lambda x: x - 2.0, m=3.0, M=3.0, kind="custom")
        with pytest.raises(NoConvergence):
            bar_g0([0.0], lying)

    def test_nan_constraint_raises(self):
        broken = Constraint(
            h=lambda x: np.full_like(np.asarray(x, dtype=np.float64), np.nan),
            m=1.0,
            M=1.0,
            kind="custom",
        )
        with pytest.raises(NonFiniteBracket):
            bar_g0([1.0, 2.0], broken)

    def test_monotone_root_invariant(self):
        constraint = sine_constraint(0.6, 1.1)
        for seed in range(20):
            atoms = random_atoms(seed + 100, 128)
            root = bar_g0(atoms, constraint)
            if abs(root) > 10 * TOL_X:
                assert h_mean(root - 10 * TOL_X, atoms, constraint) < 0
                assert h_mean(root + 10 * TOL_X, atoms, constraint) > 0

    def test_translation_identity(self):
        constraint = sine_constraint(0.8, 0.4)
        atoms = random_atoms(5, 200)
        base = bar_g0(atoms, constraint)
        for shift in (-3.0, 0.7, 12.5):
            shifted = bar_g0(atoms + shift, constraint)
            assert shifted == pytest.approx(base - shift, abs=2 * TOL_X)


class TestG0:
    def test_satisfied_constraint_gives_zero(self):
        constraint = linear_constraint(2.0)
        assert g0([5.0], constraint) == 0.0  # bar_g0 = -3 clipped
        assert g0([0.0, 2.0], constraint) == 1.0

    def test_matches_positive_part(self):
        constraint = sine_constraint(0.5, 0.2)
        for seed in range(30):
            atoms = random_atoms(seed + 40, 90)
            assert g0(atoms, constraint) == max(0.0, bar_g0(atoms, constraint))

    def test_lipschitz_in_wasserstein(self):
        constraint = sine_constraint(0.9, 0.5)
        ratio = constraint.M / constraint.m
        for seed in range(0, 2000, 2):
            a = random_atoms(seed + 1000, 32, scale=3.0)
            b = a + random_atoms(seed + 1001, 32, scale=0.5)
            lhs = abs(g0(a, constraint) - g0(b, constraint))
            assert lhs <= ratio * wasserstein1(a, b) + 1e-9


class TestTracker:
    def test_fresh_tracker(self):
        tracker = ReflectionTracker()
        assert tracker.advance(0.3) == 0.3
        assert tracker.running_sup == 0.3

    def test_below_sup_no_increment(self):
        tracker = ReflectionTracker()
        tracker.advance(0.5)
        assert tracker.advance(0.2) == 0.0
        assert tracker.running_sup == 0.5

    def test_tie_gives_zero(self):
        tracker = ReflectionTracker()
        tracker.advance(0.5)
        assert tracker.advance(0.5) == 0.0

    def test_sequence_example(self):
        tracker = ReflectionTracker()
        deltas = [tracker.advance(v) for v in (0.1, 0.4, 0.2, 0.9)]
        assert deltas == [0.1, pytest.approx(0.3), 0.0, pytest.approx(0.5)]
        assert tracker.running_sup == 0.9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ReflectionTracker().advance(-0.1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_matches_brute_force_running_max(self, values):
        tracker = ReflectionTracker()
        deltas = [tracker.advance(v) for v in values]
        sups = np.maximum.accumulate(values)
        brute = np.diff(np.concatenate(([0.0], sups)))
        assert np.allclose(deltas, brute, atol=1e-12)
        assert tracker.running_sup == sups[-1]
        assert tracker.running_sup == pytest.approx(sum(deltas), abs=1e-9)


class TestWasserstein:
    def test_identical_measures(self):
        atoms = random_atoms(6, 64)
        assert wasserstein1(atoms, atoms.copy()) == 0.0

    def test_sorted_pairing(self):
        assert wasserstein1([0.0, 1.0], [1.0, 2.0]) == 1.0
        assert wasserstein1([1.0, 0.0], [2.0, 1.0]) == 1.0

    def test_single_atoms(self):
        assert wasserstein1([0.0], [3.0]) == 3.0

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            wasserstein1([0.0, 1.0], [0.0])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    def test_translation_costs_shift(self, atoms, shift):
        atoms = np.asarray(atoms)
        assert wasserstein1(atoms, atoms + shift) == pytest.approx(
            abs(shift), abs=1e-10
        )
