"""Self-test of the benchmark at toy sizes: ``python -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import meanreflect  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from spans import PER_LAYER_UNITS, Tracer, _covered, tail  # noqa: E402
from workloads import FIG1_MODEL, FIG5_MODEL, WORKLOADS  # noqa: E402

RUN_SUPPLIED = {"parallel.speedup_2t", "trace.wall_s", "trace.overhead_s", "trace.digest_match"}


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_pinned_models_match_configs():
    def model(name):
        return json.loads((ROOT / "configs" / f"{name}.json").read_text())["model"]

    assert model("fig1") == FIG1_MODEL
    assert model("fig2") == FIG1_MODEL
    assert model("fig5") == FIG5_MODEL


def test_tail_and_coverage_helpers():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    pct, value = tail([float(v) for v in range(1, 101)])
    assert (pct, value) == (90.0, 90.0)
    assert _covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == pytest.approx(4.0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_matches_untraced_and_restores_the_package(name):
    workload = WORKLOADS[name].toy()
    state = workload.build(seed=3)
    plain = workload.run(state)
    originals = (meanreflect.simulate, meanreflect.scheme.run_chunked,
                 meanreflect.stochastics.uniforms, meanreflect.MeanEvaluator.__call__)
    tracer = Tracer()
    with tracer:
        traced = workload.run(state)
    assert (meanreflect.simulate, meanreflect.scheme.run_chunked,
            meanreflect.stochastics.uniforms, meanreflect.MeanEvaluator.__call__) == originals
    assert traced.digest() == plain.digest()
    assert workload.run(state, threads=1).digest() == plain.digest()
    assert set(plain.checks) == set(traced.checks)
    metrics = tracer.metrics()
    assert set(metrics) | RUN_SUPPLIED == set(PER_LAYER_UNITS)
    assert metrics["philox.lanes"] >= metrics["stochastics.uniforms.lanes"] > 0
    assert metrics["scheme.steps"] > 0
    if name == "fig2_sweep":
        assert metrics["harness.replication_ms.p50"] > 0.0
        assert metrics["oracle.exact_path.calls"] == (
            len(workload.particles) * workload.replications)
    if name == "fig5_sine":
        assert metrics["stochastics.marks.point_law_lanes"] > 0
        assert metrics["oracle.case_iii_K.s"] > 0.0
    if name == "fig1_density":
        assert metrics["oracle.density_k.calls"] == workload.steps


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_result_line(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1_cloud", "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["attempted"] >= 2
    if trace:
        assert result["metrics"]["trace.digest_match"]["value"] == 1
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1_cloud", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
