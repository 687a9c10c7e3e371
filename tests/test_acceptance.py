"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <criterion>: PASS|FAIL - detail` line
(visible with `pytest tests/test_acceptance.py -v -s`). The expensive
particle runs are shared between criteria through session fixtures.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import meanreflect as mr
from meanreflect import stochastics as sto

from conftest import FIG5_P, FIG5_X0

FIG1 = {"beta": 2.0, "sigma": 1.0, "eta": 1.0, "lambda": 5.0, "x0": 1.0, "p": 0.5}
FIG3 = {"a": 3.0, "gamma": 1.0, "theta": 1.0, "lambda": 2.0, "x0": 4.0, "p": 1.0}
FIG5 = {
    "beta": 1e-2, "a": 1e-2, "sigma": 1.0, "eta": 0.1, "lambda": 1.0,
    "x0": FIG5_X0, "p": FIG5_P, "alpha": 0.9,
}


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"{criterion}: {detail}"


def timed_simulation(case_params, factory, grid, n_particles, seed):
    model, constraint = factory(case_params)
    start = time.perf_counter()
    traj = mr.simulate(model, constraint, grid, n_particles, seed)
    return traj, time.perf_counter() - start


def case_i_factory(p):
    return mr.make_case_i(p["beta"], p["sigma"], p["eta"], p["lambda"], p["x0"], p["p"])


def case_ii_factory(p):
    return mr.make_case_ii(p["a"], p["gamma"], p["theta"], p["lambda"], p["x0"], p["p"])


def case_iii_factory(p):
    return mr.make_case_iii(
        p["beta"], p["a"], p["sigma"], p["eta"], p["lambda"], p["x0"],
        p["p"], p["alpha"],
    )


@pytest.fixture(scope="session")
def fig1_run():
    return timed_simulation(FIG1, case_i_factory, mr.GridSpec(1.0, 500), 100_000, seed=1)


@pytest.fixture(scope="session")
def fig1_reduced_run():
    return timed_simulation(FIG1, case_i_factory, mr.GridSpec(1.0, 200), 5_000, seed=1)


@pytest.fixture(scope="session")
def fig3_run():
    return timed_simulation(FIG3, case_ii_factory, mr.GridSpec(1.0, 500), 10_000, seed=1)


@pytest.fixture(scope="session")
def fig5_run():
    grid = mr.GridSpec(15.0, 1000)
    traj, elapsed = timed_simulation(FIG5, case_iii_factory, grid, 100_000, seed=1)
    reference = mr.exact_case_iii_K(FIG5, grid)
    return traj, reference, elapsed


def test_criterion_1_case_i_reflection_path(fig1_run, fig1_reduced_run):
    traj, elapsed = fig1_run
    reduced, reduced_elapsed = fig1_reduced_run
    full_err = abs(traj.k_hat[-1] - 1.5)
    reduced_err = abs(reduced.k_hat[-1] - 1.5)
    ok = (
        full_err <= 0.05
        and elapsed < 120.0
        and reduced_err <= 0.15
        and reduced_elapsed < 5.0
    )
    report(
        "criterion 1 (case i reflection path)",
        ok,
        f"full run |K_hat(1) - 1.5| = {full_err:.4f} (tol 0.05) in {elapsed:.1f}s "
        f"(limit 120s); reduced |K_hat(1) - 1.5| = {reduced_err:.4f} (tol 0.15) "
        f"in {reduced_elapsed:.2f}s (limit 5s)",
    )


def test_criterion_2_case_ii_reflection_onset(fig3_run):
    traj, _ = fig3_run
    early = traj.k_hat[traj.times <= 0.40]
    k_final_target = 3.0 - math.log(4.0)  # a*p*(T - t*) = 1.6137
    final_err = abs(traj.k_hat[-1] - k_final_target)
    ok = float(early.max()) <= 0.05 and final_err <= 0.1
    report(
        "criterion 2 (case ii reflection onset)",
        ok,
        f"max K_hat on t <= 0.40 is {early.max():.5f} (tol 0.05); "
        f"|K_hat(1) - {k_final_target:.4f}| = {final_err:.4f} (tol 0.1)",
    )


def test_criterion_3_convergence_slope_in_particles():
    config = mr.ExperimentConfig(
        case="i", model_params=FIG1, horizon=1.0,
        grid_steps=(100,), particles=tuple(range(100, 2201, 300)),
        replications=200, seed=7,
    )
    start = time.perf_counter()
    table = mr.convergence_sweep(config)
    elapsed = time.perf_counter() - start
    slope = table.regression_in_particles[100].slope
    e_by_particles = {row.N: row.e_hat for row in table.rows}
    shrinks = e_by_particles[2200] < e_by_particles[100]
    ok = -1.4 <= slope <= -0.6 and shrinks and elapsed < 900.0
    cells = ", ".join(f"N={row.N}: {row.e_hat:.4f}" for row in table.rows)
    report(
        "criterion 3 (error decay in particle count)",
        ok,
        f"slope {slope:.3f} (window [-1.4, -0.6]), "
        f"r2 {table.regression_in_particles[100].r_squared:.3f}, "
        f"E(N=2200) < E(N=100): {shrinks}, {elapsed:.0f}s (limit 900s); {cells}",
    )


def test_criterion_4_convergence_in_grid_steps():
    config = mr.ExperimentConfig(
        case="i", model_params=FIG1, horizon=1.0,
        grid_steps=(25, 50, 100, 200), particles=(100_000,),
        replications=12, seed=11,
    )
    table = mr.convergence_sweep(config)
    e_by_n = {row.n: row.e_hat for row in table.rows}
    slope = table.regression_in_steps[100_000].slope
    steps = sorted(e_by_n)
    monotone = all(e_by_n[a] > e_by_n[b] for a, b in zip(steps, steps[1:]))
    ok = monotone and slope <= -0.5
    cells = ", ".join(f"n={n}: {e_by_n[n]:.6f}" for n in steps)
    detail = (
        f"{cells}; monotone decrease: {monotone}, slope {slope:.3f} "
        "(need <= -0.5). Note: this model has state-independent drift, "
        "volatility and jump amplitude, so the left-point update is exact at "
        "grid times and the coupled error consists solely of the "
        "reflection-tracking noise, which the particle count controls and "
        "grid refinement does not reduce."
    )
    report("criterion 4 (error decay in grid steps)", ok, detail)


def test_criterion_5_skorokhod_complementarity(
    fig1_run, fig1_reduced_run, fig3_run, fig5_run
):
    runs = {
        "case i full": (fig1_run[0], 1.0),
        "case i reduced": (fig1_reduced_run[0], 1.0),
        "case ii": (fig3_run[0], 1.0),
        "case iii": (fig5_run[0], 1.9),  # M = 1 + |alpha|
    }
    worst = []
    ok = True
    for name, (traj, M) in runs.items():
        rep = mr.skorokhod_report(traj, active_threshold=1e-8)
        ok = ok and rep.worst_negative_mean_h <= 1e-8
        ok = ok and rep.worst_active_mean_h <= 1e-8 * M
        worst.append(
            f"{name}: neg {rep.worst_negative_mean_h:.2e}, "
            f"active {rep.worst_active_mean_h:.2e}"
        )
    report(
        "criterion 5 (discrete complementarity)",
        ok,
        "normalized constraint-mean violations (tol 1e-8): " + "; ".join(worst),
    )


def test_criterion_6_reflection_kernel_properties():
    start = time.perf_counter()

    def atoms_for(seed, n=64, scale=10.0):
        u = sto.uniforms(seed, np.arange(n), 0, sto.Channel.INITIAL)
        return scale * (2.0 * u - 1.0)

    # (a) linear closed form vs bisection
    max_gap_a = 0.0
    for seed in range(1000):
        constraint = mr.linear_constraint(float(seed % 7) - 3.0)
        atoms = atoms_for(seed)
        gap = abs(
            mr.bar_g0(atoms, constraint)
            - mr.bar_g0(atoms, dataclasses.replace(constraint, kind="custom"))
        )
        max_gap_a = max(max_gap_a, gap)
    ok_a = max_gap_a <= 1e-10

    # (b) transport-Lipschitz bound on the push
    constraint = mr.sine_constraint(0.9, 0.5)
    ratio = constraint.M / constraint.m
    ok_b = True
    for seed in range(1000):
        a = atoms_for(2000 + 2 * seed, n=32, scale=3.0)
        b = a + atoms_for(2001 + 2 * seed, n=32, scale=0.5)
        lhs = abs(mr.g0(a, constraint) - mr.g0(b, constraint))
        ok_b = ok_b and lhs <= ratio * mr.wasserstein1(a, b) + 1e-9

    # (c) translation identity
    ok_c = True
    for seed in range(100):
        atoms = atoms_for(5000 + seed)
        base = mr.bar_g0(atoms, constraint)
        for shift in (-4.0, 0.3, 9.0):
            ok_c = ok_c and abs(mr.bar_g0(atoms + shift, constraint) - (base - shift)) <= 2e-12

    # (d) running-sup increments vs brute force
    ok_d = True
    for seed in range(1000):
        values = np.abs(atoms_for(9000 + seed, n=20, scale=5.0))
        tracker = mr.ReflectionTracker()
        deltas = np.array([tracker.advance(v) for v in values])
        brute = np.diff(np.concatenate(([0.0], np.maximum.accumulate(values))))
        ok_d = ok_d and np.allclose(deltas, brute, atol=1e-12)

    elapsed = time.perf_counter() - start
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 10.0
    report(
        "criterion 6 (reflection kernel properties)",
        ok,
        f"closed form vs bisection max gap {max_gap_a:.2e} (tol 1e-10); "
        f"transport bound: {ok_b}; translation: {ok_c}; running sup: {ok_d}; "
        f"{elapsed:.1f}s (limit 10s)",
    )


def test_criterion_7_reflection_density():
    model, constraint = case_i_factory(FIG1)
    grid = mr.GridSpec(1.0, 500)
    times, khat = mr.density_series(model, constraint, grid, 100_000, seed=1)
    window = times >= 0.4
    mean_abs_err = float(np.mean(np.abs(khat[window] - 2.0)))
    integral = float(khat.sum() * grid.dt)
    ok = mean_abs_err <= 0.2 and abs(integral - 1.5) <= 0.05 * 1.5
    report(
        "criterion 7 (reflection density)",
        ok,
        f"mean |k_hat - 2| on [0.4, 1] = {mean_abs_err:.4f} (tol 0.2); "
        f"integral {integral:.4f} vs 1.5 (tol 5%)",
    )


def test_criterion_8_case_iii_semi_analytic_match(fig5_run):
    traj, reference, elapsed = fig5_run
    k_ref = reference.k_exact
    nonneg = bool(np.all(k_ref >= 0.0))
    nondecr = bool(np.all(np.diff(k_ref) >= -1e-12))
    rel_sup = float(np.max(np.abs(traj.k_hat - k_ref)) / max(k_ref.max(), 1e-12))
    ok = nonneg and nondecr and rel_sup <= 0.15
    report(
        "criterion 8 (case iii reference reflection)",
        ok,
        f"reference nonnegative: {nonneg}, nondecreasing: {nondecr}; "
        f"relative sup gap {rel_sup:.4f} (tol 0.15); K(15) ref "
        f"{k_ref[-1]:.4f} vs scheme {traj.k_hat[-1]:.4f}; run {elapsed:.0f}s",
    )


def test_criterion_9_thread_count_determinism(tmp_path):
    config = {
        "model": dict(FIG1, case="i"),
        "grid": {"T": 1.0, "n": 40},
        "particles": 20_000,
        "replications": 3,
        "sweep": {"N": [200, 400]},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    digests = {}
    for threads in ("1", "4"):
        env = dict(os.environ, MEANREFLECT_THREADS=threads)
        out_sim = tmp_path / f"sim{threads}"
        out_conv = tmp_path / f"conv{threads}"
        for args in (
            ["simulate", "--config", str(config_path), "--seed", "7",
             "--out", str(out_sim)],
            ["convergence", "--config", str(config_path), "--seed", "7",
             "--out", str(out_conv)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "meanreflect", *args],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        digests[threads] = (
            (out_sim / "path.csv").read_bytes(),
            (out_conv / "convergence.csv").read_bytes(),
        )
    same_path = digests["1"][0] == digests["4"][0]
    same_conv = digests["1"][1] == digests["4"][1]
    ok = same_path and same_conv
    report(
        "criterion 9 (thread-count determinism)",
        ok,
        f"path.csv identical: {same_path}; convergence.csv identical: {same_conv} "
        f"for MEANREFLECT_THREADS in {{1, 4}}",
    )
